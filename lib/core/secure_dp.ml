open Import

exception Band_too_narrow

type pred = Diag | Up | Left

(* Where each predecessor of (i, j) sits, in the order every rule's
   minimum instance lists them. *)
let preds = [ (Diag, 1, 1); (Up, 1, 0); (Left, 0, 1) ]

(* What a rule derives from phase 1, once per run. *)
type grid = {
  origin : Paillier.ciphertext;
  cost : int -> int -> Paillier.ciphertext;  (* the cell's own term *)
  edge : pred -> int -> int -> Paillier.ciphertext -> Paillier.ciphertext;
      (* [edge p i j v]: what predecessor [p] of (i, j), holding [v], offers *)
}

type finish =
  | Local of
      (Client.t -> Paillier.ciphertext Lazy.t -> Paillier.ciphertext -> Paillier.ciphertext)
      (* [f client cost best], no interaction *)
  | Secure_max  (* max(cost, best): one two-input secure-maximum instance *)

type rule = {
  kind : Client.distance_kind;
  name : string;
  margin : int;  (* extra gap row and column: the grid is (m+margin) x (n+margin) *)
  encryptions : int;  (* client encryptions [prepare] adds to phase 1's m row norms *)
  finish : finish;
  prepare : Client.t -> grid;
}

(* DTW and DFD: the m x n grid of pairwise costs, origin cost(0, 0),
   identity edges; they differ only in the finish. *)
let cost_grid kind name finish =
  {
    kind;
    name;
    margin = 0;
    encryptions = 0;
    finish;
    prepare =
      (fun client ->
        let cost = Client.fetch_cost_matrix client in
        {
          origin = cost.(0).(0);
          cost = (fun i j -> cost.(i).(j));
          edge = (fun _ _ _ v -> v);
        });
  }

let dtw = cost_grid `Dtw "dtw" (Local (fun client (lazy cost) best -> Client.add client cost best))
let dfd = cost_grid `Dfd "dfd" Secure_max

(* ERP charges each step on its edge, so the minimum runs over candidate
   sums.  The deletion penalties of the client's own elements are
   plaintext constants; the server side's come homomorphically from the
   phase-1 data.  The origin is encrypted after phase 1, so it takes the
   pool factor that follows the m row norms. *)
let erp ~gap =
  {
    kind = `Erp;
    name = "erp";
    margin = 1;
    encryptions = 1;
    finish = Local (fun _ _ best -> best);
    prepare =
      (fun client ->
        let data = Client.fetch_phase1 client in
        let cost = Client.cost_matrix_of client data in
        let y_gap = Client.gap_costs_of client data ~gap in
        let x_gap =
          Array.init (Client.client_length client) (fun i ->
              Distance.sq_euclidean (Client.client_element client i) gap)
        in
        {
          origin = Client.encrypt_constant client 0;
          cost = (fun i j -> cost.(i - 1).(j - 1));
          edge =
            (fun p i j v ->
              match p with
              | Diag -> Client.add client v cost.(i - 1).(j - 1)
              | Up -> Client.add_plain client v x_gap.(i - 1)
              | Left -> Client.add client v y_gap.(j - 1));
        });
  }

type domain = Full | Band of int
type schedule = Row_major | Anti_diagonal

let inside domain (i, j) =
  match domain with Full -> true | Band b -> abs (i - j) <= b

(* Every in-domain cell is reachable — its diagonal predecessor has the
   same |i - j| — so a predecessor is live iff it lies in the grid and
   the domain.  The plan sizes its instances and the run gathers its
   offers from this one list. *)
let live_preds domain (i, j) =
  List.filter (fun (_, di, dj) -> i >= di && j >= dj && inside domain (i - di, j - dj)) preds

(* The cells of a run grouped into steps, in execution order.  Each step
   costs at most one minimum round (over its cells with two or more live
   predecessors) followed by at most one maximum round (the interactive
   finish of all its cells). *)
let steps domain schedule ~rows ~cols =
  let singles cells =
    Seq.filter_map (fun c -> if inside domain c then Some [| c |] else None) cells
  in
  let column = Seq.init (rows - 1) (fun i -> (i + 1, 0)) in
  let row = Seq.init (cols - 1) (fun j -> (0, j + 1)) in
  let inner =
    match schedule with
    | Row_major ->
      singles
        (Seq.concat
           (Seq.init (rows - 1) (fun i -> Seq.init (cols - 1) (fun j -> (i + 1, j + 1)))))
    | Anti_diagonal ->
      Seq.init (Stdlib.max 0 (rows + cols - 3)) (fun d ->
          let s = d + 2 in
          Seq.init (rows - 1) (fun i -> (i + 1, s - i - 1))
          |> Seq.filter (fun ((_, j) as c) -> j >= 1 && j < cols && inside domain c)
          |> Array.of_seq)
      |> Seq.filter (fun cells -> Array.length cells > 0)
  in
  Seq.append (singles column) (Seq.append (singles row) inner)

let check_domain domain ~m ~n =
  match domain with
  | Full -> ()
  | Band b ->
    if b < 0 then invalid_arg "Secure_dp: negative band";
    if abs (m - n) > b then raise Band_too_narrow

let rounds rule domain schedule ~m ~n =
  check_domain domain ~m ~n;
  steps domain schedule ~rows:(m + rule.margin) ~cols:(n + rule.margin)
  |> Seq.flat_map (fun cells ->
         let contested =
           List.filter (fun s -> s >= 2)
             (List.map (fun c -> List.length (live_preds domain c)) (Array.to_list cells))
         in
         let min_round =
           if contested = [] then Seq.empty else Seq.return (Array.of_list contested)
         in
         match rule.finish with
         | Local _ -> min_round
         | Secure_max -> Seq.append min_round (Seq.return (Array.make (Array.length cells) 2)))

let plan rule domain schedule ~m ~n = List.of_seq (rounds rule domain schedule ~m ~n)

let masked_values rule domain schedule ~k ~m ~n =
  Seq.fold_left
    (fun acc sizes -> Array.fold_left (fun acc s -> acc + s + k) acc sizes)
    0 (rounds rule domain schedule ~m ~n)

let run_matrix rule domain schedule client =
  Client.require_plan client rule.kind;
  let m = Client.client_length client and n = Client.server_length client in
  let rounds = rounds rule domain schedule ~m ~n in
  Telemetry.span ~name:("dp." ^ rule.name)
    ~attrs:[ ("m", Telemetry.Int m); ("n", Telemetry.Int n) ]
  @@ fun () ->
  (* offline phase: exactly the factors this run will draw *)
  Client.precompute_randomness client
    (Seq.fold_left
       (fun acc sizes -> acc + Client.round_randomness client sizes)
       (m + rule.encryptions) rounds);
  let g = rule.prepare client in
  let rows = m + rule.margin and cols = n + rule.margin in
  let grid = Array.make_matrix rows cols None in
  grid.(0).(0) <- Some g.origin;
  let offers (i, j) =
    live_preds domain (i, j)
    |> List.map (fun (p, di, dj) -> g.edge p i j (Option.get grid.(i - di).(j - dj)))
    |> Array.of_list
  in
  (* the schedule picks the frame: the paper's one-instance round or one
     batch; a step without a contested cell has no minimum round *)
  let extremes extreme instances =
    if Array.length instances = 0 then [||]
    else Client.extremes client ~extreme ~single:(schedule = Row_major) instances
  in
  Seq.iter
    (fun cells ->
      let offered = Array.map offers cells in
      let minima =
        extremes `Min
          (Array.of_list (List.filter (fun o -> Array.length o >= 2) (Array.to_list offered)))
        |> Array.to_seq |> Queue.of_seq
      in
      let best =
        Array.map (fun o -> if Array.length o = 1 then o.(0) else Queue.pop minima) offered
      in
      let values =
        match rule.finish with
        | Local f -> Array.mapi (fun c (i, j) -> f client (lazy (g.cost i j)) best.(c)) cells
        | Secure_max ->
          extremes `Max
            (Array.mapi (fun c (i, j) -> [| g.cost i j; best.(c) |]) cells)
      in
      Array.iteri (fun c (i, j) -> grid.(i).(j) <- Some values.(c)) cells)
    (steps domain schedule ~rows ~cols);
  let distance = Client.reveal client (Option.get grid.(rows - 1).(cols - 1)) in
  (grid, distance)

let run rule domain schedule client = snd (run_matrix rule domain schedule client)
