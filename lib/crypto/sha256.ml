(* SHA-256 on native ints: 32-bit words live in the low bits of an int.
   Sums are masked when they are stored back into a word; rotations are
   left unmasked and each sigma masks its xor once, since the garbage
   bits above bit 31 never reach the low 32.  Each sigma duplicates its
   word once ({!dup}) and takes every rotation as one shift of it. *)

let mask = 0xFFFF_FFFF

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;              (* 8 state words *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  mutable buf_len : int;      (* bytes pending in [buf] *)
  mutable total : int;        (* total message length in bytes *)
  w : int array;              (* 64-word message schedule, reused *)
}

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
            0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () = {
  h = Array.copy iv;
  buf = Bytes.create 64;
  buf_len = 0;
  total = 0;
  w = Array.make 64 0;
}

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* Compression-function calls made on this domain. *)
let block_count = Domain.DLS.new_key (fun () -> ref 0)

let blocks () = !(Domain.DLS.get block_count)

external big_endian : unit -> bool = "%big_endian"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian 32-bit load; the caller has bounds-checked [i + 4]. *)
let load_be32 b i =
  let v = get32u b i in
  Int32.to_int (if big_endian () then v else bswap32 v) land mask

(* [dup x] holds the 32-bit word [x] twice, at bits 0..31 and 32..63, so
   for 0 < n < 32 bits 0..31 of [dup x lsr n] are [x] rotated right by
   [n].  A native int has 63 bits, so the copy of x's bit 31 that belongs
   at bit 63 is lost; a shift by [n] would have moved it to bit 63 - n,
   which is above bit 31 for every n < 32, in the garbage the sigma's mask
   removes.  Bits 0..31 need only bits n..n + 31 <= 62. *)
let dup x = x lor (x lsl 32)

let compress ctx block off =
  if off < 0 || off + 64 > Bytes.length block then invalid_arg "Sha256.compress";
  incr (Domain.DLS.get block_count);
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (load_be32 block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let y15 = dup w15 and y2 = dup w2 in
    let s0 = ((y15 lsr 7) lxor (y15 lsr 18) lxor (w15 lsr 3)) land mask in
    let s1 = ((y2 lsr 17) lxor (y2 lsr 19) lxor (w2 lsr 10)) land mask in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let ye = dup e' and ya = dup a' in
    let s1 = ((ye lsr 6) lxor (ye lsr 11) lxor (ye lsr 25)) land mask in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((ya lsr 2) lxor (ya lsr 13) lxor (ya lsr 22)) land mask in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := !g; g := !f; f := e';
    e := (!d + t1) land mask;
    d := !c; c := !b; b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed in place: [compress] only reads. *)
  while n - !pos >= 64 do
    compress ctx (Bytes.unsafe_of_string s) !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize ctx =
  (* Padding, written straight into the block buffer: 0x80, zeros, then
     the 8-byte big-endian bit length — in a second block when fewer than
     9 bytes are left in this one. *)
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

(* One context per domain, reset by every one-shot call.  No one-shot call
   runs another while its context is live, so nesting (as in [hmac]) is
   safe. *)
let one_shot = Domain.DLS.new_key init

let digest s =
  let ctx = Domain.DLS.get one_shot in
  reset ctx;
  feed ctx s;
  finalize ctx

let digest_list ss =
  let ctx = Domain.DLS.get one_shot in
  reset ctx;
  List.iter (feed ctx) ss;
  finalize ctx

let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let pad fill =
    let b = Bytes.make 64 (Char.chr fill) in
    String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor fill))) key;
    Bytes.to_string b
  in
  digest (pad 0x5c ^ digest (pad 0x36 ^ msg))

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out
