(** SHA-256 (FIPS 180-4), implemented from scratch on native ints.

    Digests are returned as 32-byte binary strings.  This module is the
    repository's only hash function: Merkle trees, Fiat–Shamir challenges
    and batch commitments all go through it (the paper uses blake3; any
    collision-resistant hash preserves behaviour). *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val finalize : ctx -> string
(** Produce the 32-byte digest.  The context must not be reused. *)

val digest : string -> string
(** One-shot [digest s = finalize (feed (init ()) s)], without allocating
    a context: one-shot calls ({!digest}, {!digest_list}, {!hmac}) reset
    and reuse a single context held in domain-local storage.  They are
    safe across domains, but not across systhreads of one domain, which
    could interleave on the shared context; the repository runs none.
    Contexts from {!init} are independent of it. *)

val digest_list : string list -> string
(** Digest of the concatenation, without building the concatenation.
    Uses the domain-local one-shot context, as {!digest}. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104). *)

val to_hex : string -> string
(** Lowercase hex rendering of a binary digest. *)

val blocks : unit -> int
(** Compression-function calls (64-byte blocks) made so far on the
    calling domain, one-shot calls included.  A deterministic work count:
    the difference across a computation is its SHA-256 cost in blocks. *)
