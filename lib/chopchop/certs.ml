module Multisig = Repro_crypto.Multisig
module Sha256 = Repro_crypto.Sha256

type quorum_cert = { signers : int list; agg : Multisig.signature }

let witness_statement ~root ~broker ~number =
  String.concat "|"
    [ "witness"; Sha256.to_hex root; string_of_int broker; string_of_int number ]

let completion_statement ~root ~counter ~exc_hash =
  String.concat "|"
    [ "completion"; Sha256.to_hex root; string_of_int counter; Sha256.to_hex exc_hash ]

let exceptions_hash exceptions =
  Sha256.digest_list
    (List.map
       (fun (id, seq) -> String.concat "" [ string_of_int id; ":"; string_of_int seq; ";" ])
       exceptions)

let sign_shard sk statement = Multisig.sign sk statement

let assemble shards =
  let shards = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) shards in
  { signers = List.map fst shards;
    agg = Multisig.aggregate_signatures (List.map snd shards) }

let verify ~statement ~server_ms_pk ~quorum qc =
  let distinct = List.sort_uniq Int.compare qc.signers in
  List.length distinct = List.length qc.signers
  && List.length distinct >= quorum
  && Multisig.verify_multi (List.map server_ms_pk qc.signers) statement qc.agg

type delivery_cert = {
  root : string;
  counter : int;
  exceptions : (Types.client_id * Types.sequence_number) list;
  qc : quorum_cert;
}

let verify_delivery ~server_ms_pk ~quorum dc =
  let statement =
    completion_statement ~root:dc.root ~counter:dc.counter
      ~exc_hash:(exceptions_hash dc.exceptions)
  in
  verify ~statement ~server_ms_pk ~quorum dc.qc

let legitimizes evidence k =
  k = 0 || (match evidence with Some dc -> dc.counter >= k | None -> false)
