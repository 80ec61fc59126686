(* Machine-speed calibration kernel.

   The host this benchmark runs on is shared: its speed drifts by up to
   ±30 % over tens of seconds, and a run's median over rounds cannot
   filter a drift that lasts the whole run.  [run.py] therefore runs this
   kernel in its own process before every untraced round and expresses
   the host-time metrics at a fixed reference speed (see README).

   The kernel uses the OCaml standard library only, so no change to the
   program can move it.  Its mix follows the simulator's: C hashing
   (Digest), an integer mixing loop, a churning hash table and a sort of
   freshly allocated pairs. *)

let kernel () =
  let buf = Bytes.make 4096 'a' in
  let acc = ref 0 in
  for i = 0 to 1500 do
    Bytes.set_int64_le buf 0 (Int64.of_int i);
    acc := !acc lxor Hashtbl.hash (Digest.bytes buf)
  done;
  let a = Array.init 4096 (fun i -> i * 2654435761) in
  for r = 0 to 300 do
    for i = 1 to 4095 do
      a.(i) <- ((a.(i) lxor (a.(i - 1) lsr 7)) * 0x9E3779B1) + r
    done
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFF) (i, float_of_int i);
    if i land 3 = 0 then Hashtbl.remove h ((i / 2 * 7919) land 0xFFFF)
  done;
  let l = List.init 100_000 (fun i -> ((i * 7919) land 0xFFFFF, string_of_int i)) in
  ignore (Sys.opaque_identity (!acc, a, h, List.sort compare l))

(* Host seconds of one kernel pass. *)
let seconds () =
  let t0 = Repro_prof.Prof.Clock.now () in
  kernel ();
  Repro_prof.Prof.Clock.now () -. t0
