type secret_key = Field61.t
type public_key = Field61.t
type signature = { r : Field61.t; s : Field61.t }

(* Any nonzero element generates the additive group Z_p (p prime); a fixed
   odd constant keeps transcripts readable. *)
let generator = Field61.of_int 7

let scale x = Field61.mul generator x

let public_key_of_secret sk = scale sk

let keygen next64 =
  let sk = Field61.random next64 in
  (sk, scale sk)

let keygen_deterministic ~seed =
  let sk = Field61.of_bytes (Sha256.digest ("keygen|" ^ seed)) in
  (sk, scale sk)

let challenge ~r ~pk msg =
  let enc x = string_of_int (Field61.to_int x) in
  Field61.of_bytes (Sha256.digest_list [ "chal|"; enc r; "|"; enc pk; "|"; msg ])

let sign sk msg =
  (* Deterministic nonce, Ed25519-style: k = H(sk || m). *)
  let k =
    Field61.of_bytes
      (Sha256.digest_list [ "nonce|"; string_of_int (Field61.to_int sk); "|"; msg ])
  in
  let r = scale k in
  let e = challenge ~r ~pk:(scale sk) msg in
  let s = Field61.add k (Field61.mul e sk) in
  { r; s }

(* Individual verifications run on this domain. *)
let verify_count = Domain.DLS.new_key (fun () -> ref 0)

let verifies () = !(Domain.DLS.get verify_count)

(* Verification equation: s*G = R + e*pk  (additive Schnorr). *)
let verify pk msg { r; s } =
  incr (Domain.DLS.get verify_count);
  let e = challenge ~r ~pk msg in
  Field61.equal (scale s) (Field61.add r (Field61.mul e pk))

(* Exact.  In this group a scalar multiplication is one modmul, so a
   random-linear-combination check amortises nothing: its transcript and
   coefficient digests cost more than the individual checks. *)
let batch_verify entries = List.for_all (fun (pk, msg, sig_) -> verify pk msg sig_) entries

let pp_public_key = Field61.pp
let pp_signature fmt { r; s } = Format.fprintf fmt "(%a,%a)" Field61.pp r Field61.pp s

let signature_equal a b = Field61.equal a.r b.r && Field61.equal a.s b.s

let forge_garbage () = { r = Field61.of_int 1; s = Field61.of_int 1 }
