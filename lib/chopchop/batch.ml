module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Sha256 = Repro_crypto.Sha256
module Field61 = Repro_crypto.Field61
module Cost = Repro_sim.Cost
module Cpu = Repro_sim.Cpu

type straggler = {
  s_id : Types.client_id;
  s_seq : Types.sequence_number;
  s_sig : Schnorr.signature;
}

type entry = { e_id : Types.client_id; e_msg : Types.message }

type dense = {
  first_id : int;
  count : int;
  msg_bytes : int;
  tag : int;
  straggler_count : int;
  straggler_sample : (Types.client_id * Schnorr.signature) array;
}

type entries = Explicit of entry array | Dense of dense

(* Per straggler (Explicit) or per [straggler_sample] entry (Dense): the
   public key its signature last verified under, or [unverified]. *)
type verdicts = int array

let unverified = -1 (* no public key: Field61 elements are non-negative *)

type t = {
  broker : int;
  number : int;
  entries : entries;
  agg_seq : Types.sequence_number;
  stragglers : straggler array;
  agg_sig : Multisig.signature option;
  identity_root : string;
  reduction_root : string;
  verdicts : verdicts;
}

let count t =
  match t.entries with Explicit a -> Array.length a | Dense d -> d.count

let straggler_count t =
  match t.entries with
  | Explicit _ -> Array.length t.stragglers
  | Dense d -> d.straggler_count

let reduced_count t = count t - straggler_count t

let dense_message d id =
  (* Deterministic, cheap, and long enough for any msg_bytes. *)
  let base = Printf.sprintf "%08x%08x" (d.tag * 2654435761) (id * 40503) in
  let rec pad s = if String.length s >= d.msg_bytes then String.sub s 0 d.msg_bytes else pad (s ^ s) in
  pad base

let leaf ~id ~seq msg = String.concat "|" [ string_of_int id; string_of_int seq; msg ]

let dense_straggler_seq d = d.tag
(* Dense stragglers carry their own per-round sequence number (the round
   tag), individually signed — like real clients that missed reduction. *)

let is_straggler_dense d id = id >= d.first_id + d.count - d.straggler_count

let dense_root kind d agg_seq =
  Sha256.digest
    (Printf.sprintf "dense-root|%s|%d|%d|%d|%d|%d" kind d.first_id d.count d.tag
       d.straggler_count agg_seq)

(* Per entry, the index of the first straggler carrying its id, or -1 for
   a reducer.  Both arrays are sorted by id, so one merge pass resolves
   every entry. *)
let straggler_index entries stragglers =
  let m = Array.length stragglers and k = ref 0 in
  Array.map
    (fun e ->
      while !k < m && stragglers.(!k).s_id < e.e_id do incr k done;
      if !k < m && stragglers.(!k).s_id = e.e_id then !k else -1)
    entries

let resolve_seqs entries stragglers ~agg_seq =
  Array.map
    (fun k -> if k < 0 then agg_seq else stragglers.(k).s_seq)
    (straggler_index entries stragglers)

let entry_seqs t =
  match t.entries with
  | Explicit entries -> resolve_seqs entries t.stragglers ~agg_seq:t.agg_seq
  | Dense _ -> invalid_arg "Batch.entry_seqs: dense batch"

let explicit_tree ~seqs entries =
  Merkle.build (Array.mapi (fun i e -> leaf ~id:e.e_id ~seq:seqs.(i) e.e_msg) entries)

let identity_tree t =
  match t.entries with
  | Explicit entries -> explicit_tree ~seqs:(entry_seqs t) entries
  | Dense _ -> invalid_arg "Batch.identity_tree: dense batch"

let reduction_root t = t.reduction_root
let identity_root t = t.identity_root

let reducer_ids t =
  match t.entries with
  | Explicit entries ->
    let index = straggler_index entries t.stragglers in
    let ids = ref [] in
    for i = Array.length entries - 1 downto 0 do
      if index.(i) < 0 then ids := entries.(i).e_id :: !ids
    done;
    !ids
  | Dense d ->
    List.init (d.count - d.straggler_count) (fun i -> d.first_id + i)

let payload_bytes_per_entry t =
  match t.entries with
  | Explicit entries ->
    if Array.length entries = 0 then 0 else String.length entries.(0).e_msg
  | Dense d -> d.msg_bytes

let wire_bytes ~clients t =
  Wire.distilled_batch_bytes ~clients ~count:(count t)
    ~msg_bytes:(payload_bytes_per_entry t) ~stragglers:(straggler_count t)

let sorted_strictly entries =
  let ok = ref true in
  for i = 1 to Array.length entries - 1 do
    if entries.(i - 1).e_id >= entries.(i).e_id then ok := false
  done;
  !ok

let for_alli f a =
  let rec go i = i >= Array.length a || (f i a.(i) && go (i + 1)) in
  go 0

(* Signature [k] of the batch under [pk].  The statement and signature are
   fixed at construction, so a signature that verified under this exact
   key verifies again: [t.verdicts] remembers the key of the last success
   and skips the Schnorr computation for it.  Failures are not cached. *)
let verify_signature t k pk ~id ~seq msg sig_ =
  let key = Field61.to_int pk in
  t.verdicts.(k) = key
  || Schnorr.verify pk (Types.message_statement ~id ~seq msg) sig_
     && begin
       t.verdicts.(k) <- key;
       true
     end

let verify dir t =
  match t.entries with
  | Explicit entries ->
    sorted_strictly entries
    &&
    (* Both arrays are sorted by id: one merge pass pairs every straggler
       with its entry. *)
    let n = Array.length entries and j = ref 0 in
    for_alli
      (fun k s ->
        match Directory.find dir s.s_id with
        | None -> false
        | Some card ->
          while !j < n && entries.(!j).e_id < s.s_id do incr j done;
          !j < n
          && entries.(!j).e_id = s.s_id
          && verify_signature t k card.Types.sig_pk ~id:s.s_id ~seq:s.s_seq
               entries.(!j).e_msg s.s_sig)
      t.stragglers
    &&
    let reducers = reducer_ids t in
    (match (reducers, t.agg_sig) with
     | [], None -> true
     | [], Some _ -> false
     | _ :: _, None -> false
     | _ :: _, Some agg ->
       let pk = Directory.aggregate_ms_pks dir reducers in
       Multisig.verify pk (Types.reduction_statement ~root:t.reduction_root) agg)
  | Dense d ->
    d.count > 0 && d.straggler_count >= 0 && d.straggler_count <= d.count
    && d.first_id >= 0
    && d.first_id + d.count <= Directory.dense_count dir
    (* Sample of straggler signatures is genuinely checked. *)
    && for_alli
         (fun k (id, s) ->
           is_straggler_dense d id
           &&
           match Directory.find dir id with
           | None -> false
           | Some card ->
             verify_signature t k card.Types.sig_pk ~id ~seq:(dense_straggler_seq d)
               (dense_message d id) s)
         d.straggler_sample
    &&
    let reduced = d.count - d.straggler_count in
    (match t.agg_sig with
     | None -> reduced = 0
     | Some agg ->
       reduced > 0
       &&
       let pk = Directory.aggregate_ms_pks_range dir ~first:d.first_id ~count:reduced in
       Multisig.verify pk (Types.reduction_statement ~root:t.reduction_root) agg)

(* The full well-formedness check.  For a fully distilled 65,536-message
   batch this matches the paper's §3.2 anchor (2.19 ms per batch: public
   key aggregation dominates; root recomputation and sortedness ride
   within the measured figure), degrading to the classic 61.7 ms anchor
   when every entry is a straggler. *)
let witness_cpu_work t =
  let n = count t and s = straggler_count t and r = reduced_count t in
  let msg = payload_bytes_per_entry t in
  Cpu.work
    ~parallel:
      (Cost.ed25519_batch_verify s
      +. (if r > 0 then Cost.bls_aggregate_pks r else 0.)
      +. (float_of_int (n * (msg + 4)) *. Cost.serialize_per_byte))
    ~serial:(if r > 0 then Cost.bls_verify else 0.)

let non_witness_cpu_work t =
  let n = count t in
  let msg = payload_bytes_per_entry t in
  Cpu.work
    ~serial:Cost.bls_verify (* witness certificate check: one pairing *)
    ~parallel:
      ((float_of_int n *. Cost.dedup_per_message)
      +. (float_of_int (n * (msg + 4)) *. Cost.serialize_per_byte))

type proposal = {
  p_entries : entry array;
  p_agg_seq : Types.sequence_number;
  p_tree : Merkle.t;
}

let propose ~entries ~agg_seq =
  if not (sorted_strictly entries) then
    invalid_arg "Batch.propose: entries must be sorted strictly by id";
  let seqs = Array.make (Array.length entries) agg_seq in
  { p_entries = entries; p_agg_seq = agg_seq; p_tree = explicit_tree ~seqs entries }

let distill p ~broker ~number ~stragglers ~agg_sig =
  let stragglers = Array.copy stragglers in
  (* Ties on id are broken by sequence number, so the identity root does
     not depend on the order the stragglers were supplied in. *)
  Array.sort
    (fun a b ->
      match Int.compare a.s_id b.s_id with 0 -> Int.compare a.s_seq b.s_seq | c -> c)
    stragglers;
  let entries = p.p_entries and agg_seq = p.p_agg_seq in
  (* The identity tree is the reduction tree with each straggler's leaf at
     its own sequence number: patch only the leaves that differ. *)
  let index = straggler_index entries stragglers in
  let changed = ref [] in
  for i = Array.length entries - 1 downto 0 do
    let k = index.(i) in
    if k >= 0 && stragglers.(k).s_seq <> agg_seq then
      changed := (i, leaf ~id:entries.(i).e_id ~seq:stragglers.(k).s_seq entries.(i).e_msg)
                 :: !changed
  done;
  let tree = Merkle.patch p.p_tree !changed in
  ( { broker; number; entries = Explicit entries; agg_seq; stragglers; agg_sig;
      identity_root = Merkle.root tree;
      reduction_root = Merkle.root p.p_tree;
      verdicts = Array.make (Array.length stragglers) unverified },
    tree )

let make_explicit ~broker ~number ~entries ~agg_seq ~stragglers ~agg_sig =
  fst
    (distill (propose ~entries:(Array.copy entries) ~agg_seq) ~broker ~number ~stragglers
       ~agg_sig)

let dense ~broker ~number d ~agg_seq ~stragglers ~agg_sig =
  { broker; number; entries = Dense d; agg_seq; stragglers; agg_sig;
    identity_root = dense_root "identity" d agg_seq;
    reduction_root = dense_root "reduction" d agg_seq;
    verdicts = Array.make (Array.length d.straggler_sample) unverified }

let rebuild ?number ?entries ?agg_seq ?stragglers ?agg_sig t =
  let number = Option.value number ~default:t.number in
  let agg_seq = Option.value agg_seq ~default:t.agg_seq in
  let stragglers = Option.value stragglers ~default:t.stragglers in
  let agg_sig = Option.value agg_sig ~default:t.agg_sig in
  match Option.value entries ~default:t.entries with
  | Explicit entries ->
    make_explicit ~broker:t.broker ~number ~entries ~agg_seq ~stragglers ~agg_sig
  | Dense d -> dense ~broker:t.broker ~number d ~agg_seq ~stragglers ~agg_sig

let forge_dense dir ~broker ~number ~first_id ~count ~msg_bytes ~tag ~straggler_count =
  if straggler_count < 0 || straggler_count > count then
    invalid_arg "Batch.forge_dense: bad straggler_count";
  let reduced = count - straggler_count in
  let d0 =
    { first_id; count; msg_bytes; tag; straggler_count; straggler_sample = [||] }
  in
  (* Sequence numbers advance with the round tag so replayed ranges stay
     fresh: the aggregate sequence number is the tag itself. *)
  let agg_seq = tag in
  let sample_size = min straggler_count 16 in
  let sample =
    Array.init sample_size (fun i ->
        let id = first_id + count - 1 - i in
        let kp = Directory.dense_keypair id in
        let msg = dense_message d0 id in
        ( id,
          Schnorr.sign kp.Types.sig_sk
            (Types.message_statement ~id ~seq:(dense_straggler_seq d0) msg) ))
  in
  let d = { d0 with straggler_sample = sample } in
  let agg_sig =
    if reduced = 0 then None
    else begin
      let agg_sk = Directory.aggregate_dense_ms_sks_range dir ~first:first_id ~count:reduced in
      Some
        (Multisig.sign agg_sk
           (Types.reduction_statement ~root:(dense_root "reduction" d agg_seq)))
    end
  in
  dense ~broker ~number d ~agg_seq ~stragglers:[||] ~agg_sig
