(** The secure dynamic-programming engine: one traversal for every DP
    distance (paper Sections 5, 6 and the Section 8 extension claim).

    The client fills a ciphertext grid cell by cell.  A cell combines
    the values its live predecessors (diagonal, up, left — in that
    order) offer along their edges: with one live predecessor the offer
    is taken as is, with two or three a phase-2 secure-minimum instance
    picks the smallest.  The cell's {e finish} then folds in its own
    cost, locally (DTW's [cost + min]) or through a phase-3
    secure-maximum instance (DFD's [max(cost, min)]).  Border and
    band-edge cells are simply cells with fewer live predecessors.

    Three values describe a run, and nothing else is distance-specific:
    - a {!rule}: the grid origin, the edge terms and the finish;
    - a {!domain}: the full grid or a Sakoe–Chiba band;
    - a {!schedule}: the order of the cells and the frame type of their
      rounds.

    Every run reveals exactly the final cell and equals the plaintext
    [Ppst_timeseries.Distance] function of its rule and domain
    bit-for-bit. *)

open Import

exception Band_too_narrow
(** Raised when [band < |m - n|]: no complete warping path exists. *)

type rule
(** A DP distance's cell rule. *)

val dtw : rule
(** Dynamic Time Warping (Algorithm 1): an [m × n] grid with origin
    [Enc(δ²(x_0, y_0))], identity edges, finish [cost + min].  Needs a
    session planned with [~distance:`Dtw]. *)

val dfd : rule
(** Discrete Fréchet Distance (Algorithm 2): as {!dtw} with the finish
    [max(cost, min)], one two-input secure maximum per cell.  Needs
    [~distance:`Dfd]. *)

val erp : gap:int array -> rule
(** Edit distance with Real Penalty (Chen & Ng, VLDB 2004) for a public
    gap element [g]: an [(m+1) × (n+1)] grid with origin [Enc(0)],
    edges [+ δ²(x_i, y_j)] (diagonal), [+ δ²(x_i, g)] (up, a
    client-known constant) and [+ Enc(δ²(y_j, g))] (left, derived from
    the phase-1 data), identity finish.  Needs [~distance:`Erp].
    @raise Invalid_argument (at run time) on a gap of the wrong
    dimension or outside the negotiated bound. *)

type domain =
  | Full
  | Band of int
      (** Cells with [|i - j| <= band] — a public parameter that cuts the
          work from [O(m·n)] to [O((m + n)·band)]. *)

type schedule =
  | Row_major
      (** The paper's protocol: the border column, the border row, then
          the inner cells row by row; every secure extreme is its own
          singleton round. *)
  | Anti_diagonal
      (** Wavefront batching: the same borders as one-instance batch
          rounds, then one batched minimum per anti-diagonal (followed,
          when the finish is interactive, by one batched maximum) —
          [m + n - 3] inner rounds instead of [(m-1)(n-1)], with the
          same masking per instance. *)

val plan : rule -> domain -> schedule -> m:int -> n:int -> int array list
(** The interactive rounds of a run, in order, each given as the input
    count of its masked instances — pure, computed from the public shape
    alone.  It sizes the client's offline randomness exactly and gives
    the value count.
    @raise Band_too_narrow when the band admits no path
    @raise Invalid_argument on a negative band. *)

val masked_values : rule -> domain -> schedule -> k:int -> m:int -> n:int -> int
(** Protocol values the plan's rounds move in the unpacked profile, both
    directions: [s + k] per masked instance of [s] inputs ([s + k - 1]
    masked candidates out, one result back).  Phase 1 and the reveal
    are counted by {!Protocol.expected_values_transferred}.  For DTW
    this is [(m-1)(n-1)(k+3)]. *)

val run : rule -> domain -> schedule -> Client.t -> Bigint.t
(** Provision the run's randomness, fetch phase 1, fill the grid and
    reveal the final cell.
    @raise Invalid_argument when the session was planned for another
    distance
    @raise Band_too_narrow / Invalid_argument as {!plan}. *)

val run_matrix :
  rule ->
  domain ->
  schedule ->
  Client.t ->
  Paillier.ciphertext option array array * Bigint.t
(** As {!run}, also returning the filled grid ([None] outside the
    domain) — tests use it to check the client's view stays encrypted. *)
