(* The benchmark's own spans, recorded around its calls into each layer
   when the traced run asks for them.  They are kept in memory and
   written out once, as a Chrome trace, when the run ends. *)

type span = { name : string; start_ns : int; stop_ns : int; parent : int; id : int }

let on = ref false

let recorded : span list ref = ref []

let current = ref 0

let next_id = ref 1

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = Mono.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        recorded :=
          { name; start_ns; stop_ns = Mono.now_ns (); parent; id } :: !recorded;
        current := parent)
      f
  end

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name (Mono.us s.start_ns)
            (Mono.us (s.stop_ns - s.start_ns))
            s.id s.parent)
        (List.rev !recorded);
      output_string oc "]}\n")
