(** Information-entropy preservation analysis (paper Section 5.4).

    The server observes sums [s = x + r] of a matrix value [x] and a
    random offset [r].  When both are uniform on [\[Γ, 2Γ-1\]], the sum
    follows a triangular distribution on [\[2Γ, 4Γ-2\]] (Eqs. 7–8) whose
    Shannon entropy exceeds half of the uniform bound [log2 (2Γ-1)]
    (Eq. 9), and whose min-entropy is exactly [log2 Γ].  This module
    computes those quantities exactly, plus the general convolution of
    Eq. 6 for arbitrary distributions. *)

val uniform_entropy : int -> float
(** [uniform_entropy gamma_cap] = [log2 (2Γ - 1)] — the entropy a
    perfectly hiding protocol would preserve. *)

val triangular_sum_entropy : int -> float
(** Exact Shannon entropy (bits) of the sum distribution for uniform
    value and offset on [\[Γ, 2Γ-1\]] (Eqs. 7–8 summed directly).
    @raise Invalid_argument if [Γ < 1]. *)

val min_entropy : int -> float
(** Min-entropy of the sum: [log2 Γ] (the peak probability is [1/Γ]). *)

val preserved_fraction : int -> float
(** [triangular_sum_entropy Γ /. uniform_entropy Γ] — the paper's claim
    is that this exceeds 1/2 for all [Γ >= 2]. *)

val table : int list -> string list
(** The Section 5.4 table over [Γ = 2^bits] for each of [bits]: a header
    line, then one row per Γ with the four quantities above
    (uniform, masked-sum and min-entropy in bits, preserved in percent). *)

(** {1 General distributions (Eq. 6)} *)

val convolve : float array -> float array -> float array
(** [convolve value_probs offset_probs] is the distribution of the sum
    (index [i+j] accumulates [p_v(i) * p_r(j)]).  Inputs need not be
    normalized identically; the output is renormalized. *)

val shannon : float array -> float
(** Shannon entropy (bits) of a probability vector (zeros are skipped).
    The vector is normalized first. *)

val min_entropy_of : float array -> float

val empirical : samples:int array -> float array
(** Histogram of observed sums → probability vector (tests compare the
    protocol's actual masked values against the analytic curve). *)
