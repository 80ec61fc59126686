(** Distilled batches (§3).

    A batch carries its entries, one aggregate sequence number, one
    aggregate multi-signature covering every {e reduced} entry, and an
    individual (sequence number, signature) exception for every
    {e straggler} — a client that failed to multi-sign the proposal root
    in time (§4.2).  A fully distilled batch has no stragglers; a batch
    where {e every} entry is a straggler degenerates to a classic batch
    (the two endpoints of Fig. 8a).

    Two entry representations flow through the same server code:

    - [Explicit]: materialised entries, real Merkle roots and inclusion
      proofs — used by real clients, the examples and the tests;
    - [Dense]: a contiguous range of pre-provisioned identities sharing
      one synthetic message generator — the stand-in for the paper's
      pre-generated load-broker batches (§6.2).  Aggregate verification is
      real (against the directory's range-aggregated key); roots are
      synthetic commitments; CPU cost is charged for the full count.

    Two roots are derived from a batch (Appx. B.2.3):

    - the {e reduction root}, over leaves all carrying the aggregate
      sequence number — this is what reducing clients multi-signed;
    - the {e identity root}, with each straggler's leaf carrying its own
      sequence number — this names the batch everywhere else.

    Both roots are computed once, when the batch is constructed, and
    stored in the record.  [t] is private: {!distill} (of a {!proposal}),
    {!make_explicit}, {!forge_dense} and {!rebuild} are the only ways to
    obtain one, so a stored root always matches the record's contents.
    A changed batch (a renumbered or tampered copy) must be derived with
    {!rebuild}, which re-runs the constructor and so also starts with an
    empty verdict cache (see {!verify}).  Entry and straggler arrays
    reachable from a batch are read-only: the constructors copy them
    ({!propose} takes its entries over instead), and nothing may mutate
    them afterwards. *)

type straggler = {
  s_id : Types.client_id;
  s_seq : Types.sequence_number;
  s_sig : Repro_crypto.Schnorr.signature; (* over Types.message_statement *)
}

type entry = { e_id : Types.client_id; e_msg : Types.message }

type dense = {
  first_id : int;
  count : int;
  msg_bytes : int;
  tag : int; (* differentiates message content between rounds *)
  straggler_count : int; (* the LAST [straggler_count] ids of the range *)
  straggler_sample : (Types.client_id * Repro_crypto.Schnorr.signature) array;
      (* real signatures for a sample of the stragglers; the full
         verification cost is charged regardless *)
}

type entries =
  | Explicit of entry array (* sorted by id, distinct *)
  | Dense of dense

type verdicts
(** The signature-verdict cache of {!verify}; see there. *)

type t = private {
  broker : int;
  number : int; (* broker-local batch number *)
  entries : entries;
  agg_seq : Types.sequence_number;
  stragglers : straggler array;
      (* Explicit only; sorted by id, then sequence number *)
  agg_sig : Repro_crypto.Multisig.signature option;
  identity_root : string;
  reduction_root : string;
  verdicts : verdicts; (* empty at construction; written only by [verify] *)
}

val count : t -> int
val straggler_count : t -> int
val reduced_count : t -> int

val dense_message : dense -> Types.client_id -> Types.message
(** Deterministic message content of a dense entry. *)

val leaf : id:Types.client_id -> seq:Types.sequence_number -> Types.message -> string

val reduction_root : t -> string
val identity_root : t -> string

val entry_seqs : t -> Types.sequence_number array
(** Per entry, the sequence number in its identity leaf: that of the first
    straggler with its id, else the aggregate one.  Resolved by one merge
    pass over the two id-sorted arrays on each call.
    @raise Invalid_argument on a dense batch. *)

val identity_tree : t -> Repro_crypto.Merkle.t
(** The Merkle tree whose root is {!identity_root}, rebuilt on each call
    (for inclusion proofs of a batch that {!distill} did not return a
    tree for).  @raise Invalid_argument on a dense batch. *)

val reducer_ids : t -> Types.client_id list
(** Explicit batches only; Dense reducers are the leading range. *)

val wire_bytes : clients:int -> t -> int
(** Bytes on the wire per {!Wire.distilled_batch_bytes}. *)

val payload_bytes_per_entry : t -> int
(** Size of one application message in this batch. *)

val verify : Directory.t -> t -> bool
(** Full well-formedness check, as performed by a witnessing server (#9):
    identifiers strictly increasing (hence distinct), every straggler's
    individual signature valid, and the aggregate multi-signature valid
    over the reduction root for exactly the reduced identities.

    Every witness of a batch runs in this one process on the same
    immutable record, so the batch carries a verdict cache: one slot per
    straggler (per [straggler_sample] entry on a dense batch) holding the
    public key its signature last verified under.  A slot is written only
    when a signature verifies, and every constructor ({!distill},
    {!make_explicit}, {!rebuild}, {!forge_dense}) starts it empty.  Each
    call still looks every straggler up in [dir], matches it to its entry
    and checks sortedness and the aggregate multi-signature; it skips the
    Schnorr computation only when the key [dir] returns equals the cached
    one, and always recomputes a failing signature.  The cache never
    changes what [verify] returns, only how many {!Repro_crypto.Schnorr}
    verifications run; the simulated charge is {!witness_cpu_work} either
    way. *)

val witness_cpu_work : t -> Repro_sim.Cpu.work
(** Simulated CPU work of {!verify} on a server, from {!Repro_sim.Cost}:
    straggler batch-verification, pk aggregation and deserialization are
    divisible across lanes; the aggregate pairing check is serial. *)

val non_witness_cpu_work : t -> Repro_sim.Cpu.work
(** Work on a server that trusts the witness instead of verifying:
    deserialization + deduplication (divisible) and the witness
    certificate pairing check (serial). *)

type proposal = private {
  p_entries : entry array; (* sorted strictly by id; read-only *)
  p_agg_seq : Types.sequence_number;
  p_tree : Repro_crypto.Merkle.t;
      (* reduction tree: leaf [i] is [leaf] of entry [i] at [p_agg_seq] *)
}
(** A broker's proposal (#4–#7): the entries it will batch, the aggregate
    sequence number and the Merkle tree whose root the reducing clients
    multi-sign, which is the {!reduction_root} of every batch distilled
    from it.  Only {!propose} builds one, so [p_tree] always matches the
    entries; the broker hands out inclusion proofs from [p_tree] and
    {!distill} reads the reduction root from it instead of building the
    tree again. *)

val propose : entries:entry array -> agg_seq:Types.sequence_number -> proposal
(** Builds the reduction tree (one Merkle build).  The proposal takes
    [entries] over without copying it, so the caller must not mutate the
    array afterwards; the broker hands over an array it has just built.
    @raise Invalid_argument if entries are empty or not sorted strictly
    by id. *)

val distill :
  proposal ->
  broker:int ->
  number:int ->
  stragglers:straggler array ->
  agg_sig:Repro_crypto.Multisig.signature option ->
  t * Repro_crypto.Merkle.t
(** The batch of the proposal's entries with the given stragglers and
    aggregate signature, and its identity tree.  Copies and sorts
    [stragglers] and pairs each entry with its first straggler in one
    merge pass.  The reduction root is the proposal's.  The identity tree
    is the proposal tree patched with {!Repro_crypto.Merkle.patch} at the
    entries whose straggler carries a sequence number other than the
    aggregate one, so for a batch whose stragglers all carry it (a
    classic batch) it is [p_tree] itself and nothing is hashed.  The
    batch shares the proposal's (read-only) entry array.

    The batch keeps no tree (servers keep batches): the broker holds the
    returned tree in the batch's flight record, from launch until the
    delivery certificates are sent, and proves every client's inclusion
    in the identity root from it. *)

val make_explicit :
  broker:int ->
  number:int ->
  entries:entry array ->
  agg_seq:int ->
  stragglers:straggler array ->
  agg_sig:Repro_crypto.Multisig.signature option ->
  t
(** The batch of [distill (propose ~entries:(Array.copy entries) ~agg_seq)
    ~broker ~number ~stragglers ~agg_sig]: one Merkle build plus the
    identity patch, and the caller keeps its array.
    @raise Invalid_argument as {!propose}. *)

val rebuild :
  ?number:int ->
  ?entries:entries ->
  ?agg_seq:Types.sequence_number ->
  ?stragglers:straggler array ->
  ?agg_sig:Repro_crypto.Multisig.signature option ->
  t ->
  t
(** A copy of the batch with the given fields replaced, re-run through
    the constructor so both roots are recomputed from the new contents.
    Signatures are carried over, never re-signed: a rebuild that changes
    signed contents is self-consistent but fails {!verify}.
    @raise Invalid_argument as {!propose} for explicit entries. *)

val forge_dense :
  Directory.t ->
  broker:int ->
  number:int ->
  first_id:int ->
  count:int ->
  msg_bytes:int ->
  tag:int ->
  straggler_count:int ->
  t
(** Pre-generate a well-formed dense batch: the aggregate multi-signature
    is materialised from the range's aggregated secret scalar (what the
    population of simulated clients would have produced), and a sample of
    straggler signatures is genuinely signed.  This is the equivalent of
    the paper's 13 TB of pre-generated workload files. *)
