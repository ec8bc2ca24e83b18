(** Message vocabulary shared by the repair protocols. The model is the
    paper's synchronous LOCAL model: unbounded message size, one hop per
    round, private channels. *)

type t =
  | Challenge of { rank : int; candidate : int }
      (** Tournament election: a candidate challenges its pair partner
          with its random rank. *)
  | Victory of { leader : int; members : int list }
      (** Election result broadcast. *)
  | Explore of { root : int; dist : int }  (** BFS wavefront. *)
  | Accept  (** BFS: sender took the receiver as parent. *)
  | Reject  (** BFS: sender already has a parent. *)
  | Subtree of int list
      (** BFS echo: addresses collected in the sender's subtree. *)
  | Edges of (int * int) list
      (** Leader → member: your incident edges in the new expander. *)
  | Hello  (** Edge-establishment handshake along a fresh edge. *)
  | Ack
      (** Generic acknowledgement used by the fault-tolerant protocol
          variants (each (src, dst) pair acks at most one thing at a
          time, so no payload is needed). *)
  | Confirm of { leader : int; reply : bool }
      (** Victory-echo defense: [reply = false] asks a witness "did you
          also hear [leader] won?"; [reply = true] carries the witness's
          own belief back. *)
  | Vote of { claim : int; accept : bool }
      (** Subtree-quorum defense: [accept = false] asks the claimed
          member [claim] to confirm it really joined the sender's
          subtree; [accept = true] is the member's confirmation. *)
  | Beat  (** Failure-detector heartbeat, one per period per neighbour. *)
  | Suspect of { target : int }
      (** Failure detector: the sender has timed [target] out and asks
          its neighbours whether anyone holds fresher evidence. *)
  | Refute of { target : int }
      (** Failure detector: the sender heard from [target] recently —
          the suspicion is a false alarm; abort it. *)

val tag : t -> int
(** Constructor index in declaration order, [0 .. Array.length kinds - 1]:
    the slot {!Netsim} counts a message's traffic in, so tallying a
    delivery costs one array increment, not a string. *)

val kinds : string array
(** Constructor names in lowercase, indexed by {!tag}: ["challenge"],
    ["victory"], ... Read-only. The per-message-type keys of the
    observability counters ([netsim.delivered.<kind>], ...) and
    {!Netsim.stats.per_type}. *)

val size_words : t -> int
(** Payload size in O(log n)-bit words — the CONGEST-model cost of the
    message. The LOCAL model the paper analyzes ignores this; we track it
    anyway because the paper's conclusion asks how far the algorithm is
    from CONGEST-friendliness. Constant-size control messages cost 1–2
    words; address lists cost their length. *)
