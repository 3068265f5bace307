type op = Sum | Max

type edge = Identity | Logistic

type t = { name : string; edge : edge; op : op }

(* Evaluate the two branches so exp never overflows: for x < 0,
   exp x <= 1 and e / (1 + e) equals the logistic exactly. *)
let logistic x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp (-.x))
  else
    let e = exp x in
    e /. (1.0 +. e)

let apply_edge t x = match t.edge with Identity -> x | Logistic -> logistic x

let plain = { name = "plain"; edge = Identity; op = Sum }

let sigmoid = { name = "sigmoid"; edge = Logistic; op = Sum }

let maxpool = { name = "maxpool"; edge = Identity; op = Max }

let all = [ plain; sigmoid; maxpool ]

let find name = List.find_opt (fun s -> s.name = name) all

let names = List.map (fun s -> s.name) all

let identity t = match t.op with Sum -> 0.0 | Max -> neg_infinity

let combine t a b =
  match t.op with Sum -> a +. b | Max -> Float.max a b
