(** Time-series values.

    A series is a non-empty sequence of [d]-dimensional elements.  The
    secure protocols operate on {e integer} series (the paper normalizes
    its ECG data "to positive integer values"); {!Fseries} provides the
    float-valued counterpart used by generators and normalizers, with
    {!Quantize} bridging the two. *)

type t
(** Integer-valued series: elements are [int array] of a fixed dimension. *)

val create : int array array -> t
(** Build from an array of elements.
    @raise Invalid_argument when empty or when element dimensions differ. *)

val of_list : int list -> t
(** Convenience for 1-dimensional series. *)

val length : t -> int
val dimension : t -> int

val get : t -> int -> int array
(** Element at index (0-based).  The returned array must not be mutated. *)

val value : t -> int -> int
(** [value s i] for 1-dimensional series: the scalar at index [i].
    @raise Invalid_argument when the dimension is not 1. *)

val to_array : t -> int array array
(** Fresh copy of the underlying data. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous subsequence. @raise Invalid_argument on bad bounds. *)

val append : t -> t -> t

val map : (int array -> int array) -> t -> t
(** @raise Invalid_argument if the function changes the dimension
    inconsistently. *)

val max_abs_value : t -> int
(** Largest absolute coordinate value; bounds the protocol's plaintext
    range analysis. *)

val find_outside : t -> max_value:int -> (int * int * int) option
(** The first coordinate, in element order, outside [\[0, max_value\]]:
    [Some (element, coordinate, value)]; [None] when every one is in
    range.  Both parties check their own series with it before a
    session. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Float series} *)

module Fseries : sig
  type t

  val create : float array array -> t
  val of_list : float list -> t
  val length : t -> int
  val dimension : t -> int
  val get : t -> int -> float array
  val to_array : t -> float array array
  val map : (float array -> float array) -> t -> t
end
