(** Plaintext distance functions for time series.

    The [*_sq] functions operate on integer series with the {e squared
    Euclidean} local cost — exactly the semantics of the secure protocols
    (paper Section 3.2 uses squared distances because they are
    homomorphism-friendly).  A secure protocol run must return bit-for-bit
    the same value as the corresponding [*_sq] function here; the test
    suite enforces this.

    Float variants with the true Euclidean local cost are provided for
    general time-series work and for the examples. *)

(** {1 Local costs} *)

val sq_euclidean : int array -> int array -> int
(** [sq_euclidean x y] = Σ (x_i - y_i)².
    @raise Invalid_argument on dimension mismatch. *)

(** {1 Whole-series distances, protocol semantics (integer, squared)} *)

val euclidean_sq : Series.t -> Series.t -> int
(** Sum of squared element distances; requires equal lengths.
    @raise Invalid_argument otherwise. *)

val dtw_sq : Series.t -> Series.t -> int
(** Dynamic Time Warping with squared-Euclidean local cost
    (paper Algorithm 1). *)

val dfd_sq : Series.t -> Series.t -> int
(** Discrete Fréchet Distance with squared-Euclidean local cost
    (paper Algorithm 2). *)

val dtw_sq_banded : band:int -> Series.t -> Series.t -> int option
(** Sakoe–Chiba banded DTW: cells with [|i - j| > band] are excluded.
    [None] when the band admits no complete warping path. *)

val dfd_sq_banded : band:int -> Series.t -> Series.t -> int option
(** Band-constrained Discrete Fréchet Distance (couplings restricted to
    [|i - j| <= band]); [None] when the band admits no complete
    coupling. *)

val dtw_sq_matrix : Series.t -> Series.t -> int array array
(** The full DP matrix (the intermediate the protocol must hide —
    used by leakage analysis and tests). *)

val dtw_sq_path : Series.t -> Series.t -> (int * int) list
(** An optimal warping path (list of (i, j) couplings from (0,0) to
    (m-1,n-1)) — the other secret the protocol hides. *)

(** {1 Whole-series distances, float semantics} *)

val euclidean : Series.Fseries.t -> Series.Fseries.t -> float
val dtw : Series.Fseries.t -> Series.Fseries.t -> float
val dfd : Series.Fseries.t -> Series.Fseries.t -> float

val erp_sq : gap:int array -> Series.t -> Series.t -> int
(** Edit distance with Real Penalty (Chen & Ng, VLDB 2004) with the given
    gap element, on integers with squared-Euclidean cost, as the protocol
    computes it; the paper cites ERP as another DP distance the protocol
    framework extends to. *)
