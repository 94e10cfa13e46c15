(** Deterministic fault injection for chaos testing the frame layer.

    An injector is installed in a channel's ({!Channel.connect}
    [?faults]) or server's ({!Server_loop.config.faults}) frame path and
    consulted once per frame — sends and receives alike, in I/O order —
    via {!next}.  Profiles are deterministic in the frame counter (and,
    for [Flaky], in the SplitMix64 seed), so a failing chaos run replays
    bit-identically from its [--chaos-seed]/[--chaos-profile] pair.

    The resume-handshake frames a reconnecting channel exchanges
    ([Resume]/[Resume_ack]) are {e not} passed through the injector:
    faults target the session's data path, and recovery must be able to
    make progress under profiles as hostile as [drop-every-1]. *)

type profile =
  | Off
  | Drop_at of int  (** hard-drop the connection at frame N (1-based) *)
  | Drop_every of int  (** ... at every Nth frame *)
  | Corrupt_every of int * int
      (** flip one bit of byte K (mod length) in every Nth frame *)
  | Delay_every of int * float  (** sleep S seconds before every Nth frame *)
  | Short_every of int
      (** write only a prefix of every Nth outgoing frame, then drop *)
  | Dup_every of int
      (** send every Nth outgoing frame twice, then drop (a duplicate
          desyncs a strict request/reply stream — the drop forces the
          resume path to clean it up) *)
  | Flaky of float  (** drop each frame independently with probability p *)
  | Crash_at of int
      (** SIGKILL the {e injecting process} at frame N (1-based):
          deterministic worker death for failover testing.  Meaningful
          only on a supervised worker's server-side injector — a
          single-process server would kill itself with no one to
          restart it ([ppst_server] refuses the combination). *)
  | Crash_write_at of int
      (** like [Crash_at], but first write a partial prefix of frame
          N, simulating death mid-write: the peer sees a torn frame,
          the supervisor sees a dead worker *)

type action =
  | Pass
  | Drop
  | Corrupt of int
  | Delay of float
  | Short_write
  | Duplicate
  | Crash  (** raise SIGKILL against the current process *)
  | Crash_mid_write  (** write a partial frame, then SIGKILL *)

type t

val create : ?seed:int -> profile -> t
(** @raise Invalid_argument on a non-positive period/index or a [Flaky]
    probability outside [\[0, 1\]]. *)

val next : t -> action
(** Advance the frame counter and return the action for this frame.
    Thread-safe (one injector may be shared by every session of a
    server loop). *)

val frames : t -> int
(** Frames seen so far. *)

val injected : t -> int
(** Faults injected so far. *)

(** Environmental (disk / file-descriptor) fault injection: a companion
    injector for filesystem and fd-allocating syscalls.  Install one in
    front of {!Spool} writes, catalog [Store.save_dir] saves, snapshot
    fsyncs, the connection intake or the supervisor's socketpair and the Nth such
    operation fails with the real errno the environment would produce —
    [ENOSPC] on write, [EIO] on fsync, [EIO] on rename (leaving the torn
    temp file behind), [EMFILE] on fd allocation.  Deterministic in the
    per-kind operation counters, so a degraded-mode chaos run replays
    bit-identically from its [--disk-chaos] profile string. *)
module Disk : sig
  type op =
    | Write  (** payload write to a temp/spool/catalog file *)
    | Fsync  (** durability barrier (file or directory) *)
    | Rename  (** the atomic-replace commit step *)
    | Fd
        (** fd allocation: accept(2) and a worker's descriptor receive
            (both through {!Channel.take}), socketpair(2) *)

  type profile =
    | Off
    | Enospc_at of int  (** Nth write fails with ENOSPC *)
    | Enospc_every of int  (** ... every Nth write *)
    | Eio_fsync_at of int  (** Nth fsync fails with EIO *)
    | Eio_fsync_every of int
    | Torn_rename_at of int
        (** Nth rename fails with EIO after the temp file was written *)
    | Emfile_at of int  (** Nth fd allocation fails with EMFILE *)
    | Emfile_every of int

  type t

  val create : profile -> t
  (** @raise Invalid_argument on a non-positive index/period. *)

  val check : t -> op -> unit
  (** Count one operation of kind [op] and raise the profile's
      [Unix.Unix_error] if this is the operation it targets.
      Thread-safe. *)

  val check_opt : t option -> op -> unit
  (** {!check} when an injector is installed; [None] (production) does
      nothing. *)

  val injected : t -> int
  (** Faults injected so far. *)

  val profile_of_string : string -> (profile, string) result
  (** Parse a [--disk-chaos] argument: [off], [enospc-at-N],
      [enospc-every-N], [eio-fsync-at-N], [eio-fsync-every-N],
      [torn-rename-at-N], [emfile-at-N], [emfile-every-N]. *)

  val profile_to_string : profile -> string
end

val profile_of_string : string -> (profile, string) result
(** Parse a [--chaos-profile] argument: [off], [drop-at-N],
    [drop-every-N], [corrupt-every-N[:BYTE]], [delay-every-N[:MS]],
    [short-every-N], [dup-every-N], [flaky-P], [crash-at-N],
    [crash-write-at-N]. *)

val profile_to_string : profile -> string
(** The form {!profile_of_string} reads back; a [Delay_every] prints its
    delay in whole milliseconds. *)
