(* Crypto/batch unit-cost phase: direct timed calls into the public
   lib/crypto and Batch functions at the batch shapes the workloads use
   (1,024-entry all-straggler batches for classic, 65,536-message dense
   batches for distilled, single shares and proofs for the clients).
   Each metric is [samples] timings of [reps] back-to-back calls; the
   report keeps the median and quartiles of the per-call time. *)

module Sha256 = Repro_crypto.Sha256
module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Batch = Repro_chopchop.Batch
module Directory = Repro_chopchop.Directory
module Types = Repro_chopchop.Types
module Clock = Repro_prof.Prof.Clock

type stat = { name : string; p25 : float; p50 : float; p75 : float; samples : int }

(* Linear-interpolated quantile of a sorted array (as Python's
   statistics.quantiles "inclusive" method). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

(* [per] divides one call's time, e.g. by the leaves of a tree. *)
let time ~name ~samples ~reps ?(per = 1.) f =
  ignore (Sys.opaque_identity (f ()));
  let xs =
    Array.init samples (fun _ ->
        let t0 = Clock.now () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Clock.now () -. t0) *. 1e6 /. float_of_int reps /. per)
  in
  Array.sort Float.compare xs;
  { name; p25 = quantile xs 0.25; p50 = quantile xs 0.5; p75 = quantile xs 0.75;
    samples }

let leaves n =
  Array.init n (fun i -> Batch.leaf ~id:(1000 + i) ~seq:1 (Printf.sprintf "%08d" i))

(* An all-straggler explicit batch of [n] fresh dense identities: the
   classic workload's shape. *)
let classic_batch n =
  let entries =
    Array.init n (fun i ->
        { Batch.e_id = 5000 + i; e_msg = Printf.sprintf "%08d" i })
  in
  let stragglers =
    Array.map
      (fun (e : Batch.entry) ->
        let kp = Directory.dense_keypair e.e_id in
        { Batch.s_id = e.e_id; s_seq = 0;
          s_sig =
            Schnorr.sign kp.Types.sig_sk
              (Types.message_statement ~id:e.e_id ~seq:0 e.e_msg) })
      entries
  in
  Batch.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq:0 ~stragglers
    ~agg_sig:None

let run () =
  let msg32 = String.make 32 'm' in
  let statement = Types.message_statement ~id:42 ~seq:7 "payload!" in
  let kp = Directory.dense_keypair 42 in
  let sig_ = Schnorr.sign kp.Types.sig_sk statement in
  let classic_n = 1024 and dense_n = 65_536 in
  let batch_items =
    List.init classic_n (fun i ->
        let kp = Directory.dense_keypair (5000 + i) in
        let m = Types.message_statement ~id:(5000 + i) ~seq:0 "payload!" in
        (kp.Types.card.sig_pk, m, Schnorr.sign kp.Types.sig_sk m))
  in
  let l1k = leaves classic_n and l64k = leaves dense_n in
  let tree = Merkle.build l1k in
  let root = Merkle.root tree in
  let proof = Merkle.prove tree 517 in
  let root_stmt = Types.reduction_statement ~root in
  let share = Multisig.sign kp.Types.ms_sk root_stmt in
  let ms_pks =
    List.init classic_n (fun i -> (Directory.dense_keypair (5000 + i)).Types.card.ms_pk)
  in
  let dir = Directory.create ~dense_count:1_000_000 () in
  let classic = classic_batch classic_n in
  let dense =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:200_000 ~count:dense_n
      ~msg_bytes:8 ~tag:1 ~straggler_count:0
  in
  assert (Batch.verify dir classic && Batch.verify dir dense);
  [ time ~name:"crypto.sha256_32b_us" ~samples:9 ~reps:2000 (fun () ->
        Sha256.digest msg32);
    time ~name:"crypto.schnorr_sign_us" ~samples:9 ~reps:500 (fun () ->
        Schnorr.sign kp.Types.sig_sk statement);
    time ~name:"crypto.schnorr_verify_us" ~samples:9 ~reps:500 (fun () ->
        Schnorr.verify kp.Types.card.sig_pk statement sig_);
    time ~name:"crypto.schnorr_batch_verify_us_per_sig" ~samples:7 ~reps:2
      ~per:(float_of_int classic_n) (fun () -> Schnorr.batch_verify batch_items);
    time ~name:"crypto.merkle_build_us_per_leaf_1024" ~samples:7 ~reps:2
      ~per:(float_of_int classic_n) (fun () -> Merkle.build l1k);
    time ~name:"crypto.merkle_build_us_per_leaf_65536" ~samples:3 ~reps:1
      ~per:(float_of_int dense_n) (fun () -> Merkle.build l64k);
    time ~name:"crypto.merkle_prove_us" ~samples:9 ~reps:2000 (fun () ->
        Merkle.prove tree 517);
    time ~name:"crypto.merkle_verify_us" ~samples:9 ~reps:500 (fun () ->
        Merkle.verify root ~leaf:l1k.(517) proof);
    time ~name:"crypto.multisig_sign_us" ~samples:9 ~reps:500 (fun () ->
        Multisig.sign kp.Types.ms_sk root_stmt);
    time ~name:"crypto.multisig_agg_pk_us_per_key" ~samples:9 ~reps:20
      ~per:(float_of_int classic_n) (fun () -> Multisig.aggregate_public_keys ms_pks);
    time ~name:"crypto.multisig_verify_us" ~samples:9 ~reps:500 (fun () ->
        Multisig.verify kp.Types.card.ms_pk root_stmt share);
    time ~name:"batch.verify_explicit_us_per_entry" ~samples:5 ~reps:1
      ~per:(float_of_int classic_n) (fun () -> Batch.verify dir classic);
    time ~name:"batch.verify_dense_us" ~samples:9 ~reps:50 (fun () ->
        Batch.verify dir dense);
    time ~name:"batch.roots_us" ~samples:5 ~reps:2 (fun () ->
        (Batch.identity_root classic, Batch.reduction_root classic)) ]
