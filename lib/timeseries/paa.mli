(** Piecewise Aggregate Approximation (PAA) and SAX symbolization —
    the dimensionality-reduction companions of Keogh-style DTW indexing
    (the paper's reference [20] ecosystem).

    PAA splits a series into [segments] equal-width frames and replaces
    each frame by its mean.  SAX further discretizes the PAA means into an
    alphabet using Gaussian breakpoints, giving a compact symbolic sketch.
    Both operate on plaintext data: in this repository they serve the
    public-metadata side of hybrid retrieval (sketch-level pre-filtering
    before the secure protocol runs on the shortlist) and general
    time-series tooling. *)

val frame_bounds : segments:int -> length:int -> int -> int
(** [frame_bounds ~segments ~length i = i * length / segments] — the start
    index of frame [i]; frame [i] covers positions
    [\[frame_bounds i, frame_bounds (i+1))].  Exposed because the secure
    catalog-pruning round needs client and server to agree on the exact
    segmentation rule. *)

val paa : segments:int -> Series.Fseries.t -> float array
(** Frame means of a 1-dimensional float series.  Frames differ by at
    most one element in width when the length is not divisible.
    @raise Invalid_argument for multi-dimensional input, non-positive
    [segments], or [segments] exceeding the length. *)

val sax_breakpoints : alphabet:int -> float array
(** The [alphabet - 1] standard-normal breakpoints that make each symbol
    equiprobable for N(0,1) data (supported alphabets: 2..10).
    @raise Invalid_argument otherwise. *)

val sax : segments:int -> alphabet:int -> Series.Fseries.t -> int array
(** SAX word of a series: z-normalize, PAA, then quantize by
    {!sax_breakpoints}.  Symbols are integers in [\[0, alphabet)]. *)

val sax_distance_sq :
  alphabet:int -> original_length:int -> int array -> int array -> float
(** MINDIST² between two SAX words of equal segment count: the classic
    lower bound on the squared Euclidean distance of the z-normalized
    originals.  Adjacent symbols contribute zero (the SAX guarantee).
    @raise Invalid_argument on length mismatch. *)
