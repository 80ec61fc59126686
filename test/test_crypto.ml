(* Tests for the cryptographic substrate: SHA-256 against FIPS vectors,
   field arithmetic laws, Schnorr and multi-signature behaviour, Merkle
   inclusion proofs. *)

open Repro_crypto

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng = Repro_sim.Rng.create 7L
let next64 () = Repro_sim.Rng.next64 rng

let field_gen = QCheck.map (fun i -> Field61.of_int i) QCheck.int

(* --- SHA-256 ---------------------------------------------------------- *)

let sha_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno" ^
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" ) ]

let test_sha_vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Sha256.to_hex (Sha256.digest input)))
    sha_vectors

(* Every padding boundary: lengths 0-130 cover one, two and three blocks
   with the length field on either side of a block edge.  Input [n] is
   bytes [k mod 251] for k < n; digests from Python's hashlib. *)
let sha_length_vectors =
  [ (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
    (2, "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2");
    (3, "ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc");
    (4, "054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8");
    (5, "08bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db414871f51c9cb35283d");
    (6, "17e88db187afd62c16e5debf3e6527cd006bc012bc90b51a810cd80c2d511f43");
    (7, "57355ac3303c148f11aef7cb179456b9232cde33a818dfda2c2fcb9325749a6b");
    (8, "8a851ff82ee7048ad09ec3847f1ddf44944104d2cbd17ef4e3db22c6785a0d45");
    (9, "f8348e0b1df00833cbbbd08f07abdecc10c0efb78829d7828c62a7f36d0cc549");
    (10, "1f825aa2f0020ef7cf91dfa30da4668d791c5d4824fc8e41354b89ec05795ab3");
    (11, "78a6273103d17c39a0b6126e226cec70e33337f4bc6a38067401b54a33e78ead");
    (12, "fff3a9bcdd37363d703c1c4f9512533686157868f0d4f16a0f02d0f1da24f9a2");
    (13, "86eba947d50c2c01570fe1bb5ca552958dabbdbb59b0657f0f26e21ff011e5c7");
    (14, "ab107f1bd632d3c3f5c724a99d024f7faa033f33c07696384b604bfe78ac352d");
    (15, "7071fc3188fde7e7e500d4768f1784bede1a22e991648dcab9dc3219acff1d4c");
    (16, "be45cb2605bf36bebde684841a28f0fd43c69850a3dce5fedba69928ee3a8991");
    (17, "3e5718fea51a8f3f5baca61c77afab473c1810f8b9db330273b4011ce92c787e");
    (18, "7a096cc12702bcfa647ee070d4f3ba4c2d1d715b484b55b825d0edba6545803b");
    (19, "5f9a753613d87b8a17302373c4aee56faa310d3b24b6ae1862d673aa22e1790f");
    (20, "e7aebf577f60412f0312d442c70a1fa6148c090bf5bab404caec29482ae779e8");
    (21, "75aee9dcc9fbe7ddc9394f5bc5d38d9f5ad361f0520f7ceab59616e38f5950b5");
    (22, "22cb4df00cddd6067ad5cfa2bba9857f21a06843e1a6e39ad1a68cb9a45ab8b7");
    (23, "f6a954a68555187d88cd9a026940d15ab2a7e24c7517d21ceeb028e93c96f318");
    (24, "1d64add2a6388367c9bc2d1f1b384b069a6ef382cdaaa89771dd103e28613a25");
    (25, "b729ce724d9a48d3884dbfcbee1d3793d922b29fa9d639e7290af4978263772b");
    (26, "b858da80d8a57dc546905fd147612ebddd3c9188620405d058f9ee5ab1e6bc52");
    (27, "d78750726155a89c9131d0ecf2704b973b8710865bf9e831845de4f2dcbc19da");
    (28, "dc27f8e8ee2d08a2bccbb2dbd6c8e07ffba194101fc3458c34ded55f72c0971a");
    (29, "d09bea65dff48928a14b79741de3274b646f55ac898b71a66fa3eae2d9facd77");
    (30, "f2192584b67da35dfc26f743e5f53bb0376046f899dc6dabd5e7b541ae86c32f");
    (31, "4f23c2ca8c5c962e50cd31e221bfb6d0adca19111dca8e0c62598ff146dd19c4");
    (32, "630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd");
    (33, "5d8fcfefa9aeeb711fb8ed1e4b7d5c8a9bafa46e8e76e68aa18adce5a10df6ab");
    (34, "14cdbf171499f86bd18b262243d669067efbdbb5431a48289cf02f2b5448b3d4");
    (35, "f12dd12340cb84e4d0d9958d62be7c59bb8f7243a7420fd043177ac542a26aaa");
    (36, "5d7e2d9b1dcbc85e7c890036a2cf2f9fe7b66554f2df08cec6aa9c0a25c99c21");
    (37, "f4d285f47a1e4959a445ea6528e5df3efab041fa15aad94db1e2600b3f395518");
    (38, "a2fd0e15d72c9d18f383e40016f9ddc706673c54252084285aaa47a812552577");
    (39, "4aba23aea5e2a91b7807cf3026cdd10a1c38533ce55332683d4ccb88456e0703");
    (40, "5faa4eec3611556812c2d74b437c8c49add3f910f10063d801441f7d75cd5e3b");
    (41, "753629a6117f5a25d338dff10f4dd3d07e63eecc2eaf8eabe773f6399706fe67");
    (42, "40a1ed73b46030c8d7e88682078c5ab1ae5a2e524e066e8c8743c484de0e21e5");
    (43, "c033843682818c475e187d260d5e2edf0469862dfa3bb0c116f6816a29edbf60");
    (44, "17619ec4250ef65f083e2314ef30af796b6f1198d0fddfbb0f272930bf9bb991");
    (45, "a8e960c769a9508d098451e3d74dd5a2ac6c861eb0341ae94e9fc273597278c9");
    (46, "8ebfeb2e3a159e9f39ad7cc040e6678dade70d4f59a67d529fa76af301ab2946");
    (47, "ef8a7781a95c32fa02ebf511eda3dc6e273be59cb0f9e20a4f84d54f41427791");
    (48, "4dbdc2b2b62cb00749785bc84202236dbc3777d74660611b8e58812f0cfde6c3");
    (49, "7509fe148e2c426ed16c990f22fe8116905c82c561756e723f63223ace0e147e");
    (50, "a622e13829e488422ee72a5fc92cb11d25c3d0f185a1384b8138df5074c983bf");
    (51, "3309847cee454b4f99dcfe8fdc5511a7ba168ce0b6e5684ef73f9030d009b8b5");
    (52, "c4c6540a15fc140a784056fe6d9e13566fb614ecb2d9ac0331e264c386442acd");
    (53, "90962cc12ae9cdae32d7c33c4b93194b11fac835942ee41b98770c6141c66795");
    (54, "675f28acc0b90a72d1c3a570fe83ac565555db358cf01826dc8eefb2bf7ca0f3");
    (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
    (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
    (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
    (58, "e03b18640c635b338a92b82cce4ff072f9f1aba9ac5261ee1340f592f35c0499");
    (59, "bd2de8f5dd15c73f68dfd26a614080c2e323b2b51b1b5ed9d7933e535d223bda");
    (60, "0ddde28e40838ef6f9853e887f597d6adb5f40eb35d5763c52e1e64d8ba3bfff");
    (61, "4b5c2783c91ceccb7c839213bcbb6a902d7fe8c2ec866877a51f433ea17f3e85");
    (62, "c89da82cbcd76ddf220e4e9091019b9866ffda72bee30de1effe6c99701a2221");
    (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
    (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
    (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
    (66, "b6dfd259f6e0d07deb658a88148f8253f9bbbb74ddd6db3edbe159a56bc35073");
    (67, "8fa5913b62847d42bb4b464e00a72c612d2ab0df2af0b9a96af8d323fa509077");
    (68, "7ded979c0153ebb9ef28a15a314d0b27b41c4f8eed700b54974b48eb3ecaf91c");
    (69, "1cf3aa651dcf35dbfe296e770ad7ebc4e00bcccd0224db296183dc952d0008c9");
    (70, "5767d69a906d4860db9079eb7e90ab4a543e5cb032fce846554aef6ceb600e1d");
    (71, "8189e3d54767d51e8d1942659a9e2905f9ec3ae72860c16a66e75b8cc9bd2087");
    (72, "107de2bc788e11029f7851f8e1b0b5afb4e34379c709fc840689ebd3d1f51b5b");
    (73, "169f6f093a9be82febe1a6a4471425697ec25d5040b472c5b1822aeea2625988");
    (74, "2087ebd358ae3ea2a092fc19c2dfee57c5f0860296bc7b057c14e1227c5cb9d1");
    (75, "182ab56f7739e43cee0b9ba1e92c4b2a81b088705516a5243910159744f21be9");
    (76, "081f6c68899a48a1be455a55416104921d2fe4bdae696f4b72f9d9626a47915e");
    (77, "5ce02376cc256861b78f87e34783814ba1aec6d09ab500d579ed8ee95c8afcc8");
    (78, "b93e407404e3e95f20fd647365e0e7f46afabe9af1ff083af996135e00d54009");
    (79, "e81fa832b37be8ed8f79da29987aa4d61310dcb14b2859dedf8fb1daa2541fd3");
    (80, "c56705fea5b110b8dc63688533ced21167e628017387c885423b835a55edd5ef");
    (81, "c2226285d08a245a17058ed2d24ad095b714f608ae364fddf119e0a7df890540");
    (82, "f9c270da8793221a6809ac685fdd4f5387e0fe1ee6aaf01c74f1e0a719621614");
    (83, "e69befd6ef7f685c36e343ac1702d87ad6a0e4ac8c0d5c521d04aad4ef0b7458");
    (84, "4e3033562ad74a7d43eb5ff5fc2382622c6307cb10e245ad62da77c4c63cb178");
    (85, "2ea17629472564a59e5eb845a2cdd04f442df2ff26bcc866e400f77158d612a1");
    (86, "b90223df74dd49a8a1461f340f2d7a90f96903ccbb5bc3c74ea3658fc8948b20");
    (87, "e0209f42b927ec9c0f6d6a76007ed540e9bdd6e427b3368a1ea6c5e7565972dd");
    (88, "10d9bd424114319c0999adf6288f74060cd8918ef1228827a6269b2bf0f0880c");
    (89, "7d1978a65ac94dbbcdc62e3d81850299fe157dd9b7bd9e01b170156210d2815a");
    (90, "e052dff9e1c94aaa49556f86fad55029a4875839fda57f5005f4c4403876b256");
    (91, "58d29459b2130a2e151252d408b95e6dac424c564062eb911cc76440cb926ca0");
    (92, "4e4530c392316f598e1bd07f32166380a8f712a33a48e9eb4247131ec5dc05d3");
    (93, "a09c9d3e42342c7dea44edb4aeb48cf6727cacd8032a12cf77a25829fc249d32");
    (94, "eb978d0f1ac03ce5c3510b5f4a16073a7a2bdc15c4ab7777dcf01030cc316667");
    (95, "7d1905a3ace827ea1ac51c4fa08c281ed3be87e7f4e928d696bfde35c8f2dc0f");
    (96, "08359b108fa567f5dcf319fa3434da6abbc1d595f426372666447f09cc5a87dc");
    (97, "a7b3830ffab0f2bbabbef6df0b169a7917008bf238880bbf8c20b8e000077312");
    (98, "b4f5d9b1555994c5ebaebd82918d560a3bf82962a171a1614e7551939e943366");
    (99, "014ecaea1b378900f1212898c6ddb01565d81af1d0ef78df5e28d46e9caf7cfc");
    (100, "bce0aff19cf5aa6a7469a30d61d04e4376e4bbf6381052ee9e7f33925c954d52");
    (101, "4565d7b898ccea3139ad260f9273115f806b30079d7683218c4e3ecd43af3b33");
    (102, "ddadeb660fe8902c9fb2db9b6cf237c9ce5b31753398085c4367eb5910b9cc13");
    (103, "c15a8928131f6687dd10f3c115ddf8d7c8f2df7e18d12c08c4fd16f666ce60ba");
    (104, "ae8e3d799b1353a39815f90eceebefa265cc448fe39faf2008cb20784cb2df9f");
    (105, "98545371a3d9981abe5ab4a32a1d7b2fadd9801d89da52a94a4f78a42740d21c");
    (106, "6323dce2f8b3a04dcea8d205602348c40403cb200c677eb1a1c0fe37edb6eb2f");
    (107, "8150f7c5da910d709ff02ddf85dd293c6a2672633de8cda30f2e0aa58b14b0c4");
    (108, "44d21db70716bd7644cb0d819fa6791805ebc526ea32996a60e41dc753fcfafc");
    (109, "b9b7c375cca45db19466ebd0fe7c9e147948cc42c1c90f0579728cfb2651956d");
    (110, "a47a551b01e55aaaa015531a4fa26a666f1ebd4ba4573898de712b8b5e0ca7e9");
    (111, "60780e9451bdc43cf4530ffc95cbb0c4eb24dae2c39f55f334d679e076c08065");
    (112, "09373f127d34e61dbbaa8bc4499c87074f2ddb10e1b465f506d7d70a15011979");
    (113, "13aaa9b5fb739cdb0e2af99d9ac0a409390adc4d1cb9b41f1ef94f8552060e92");
    (114, "5b0a32f1219524f5d72b00ba1a1b1c09a05ff10c83bb7a86042e42988f2afc06");
    (115, "32796a0a246ea67eb785eda2e045192b9d6e40b9fe2047b21ef0cee929039651");
    (116, "da9ab8930992a9f65eccec4c310882cab428a708e6c899181046a8c73af00855");
    (117, "9c94557382c966753c8cab0957eaedbe1d737b5fcb35c56c220ddd36f8a2d351");
    (118, "d32ab00929cb935b79d44e74c5a745db460ff794dea3b79be40c1cc5cf5388ef");
    (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
    (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
    (121, "335a461692b30bba1d647cc71604e88e676c90e4c22455d0b8c83f4bd7c8ac9b");
    (122, "3d08c4d7bdda7ec922b0741df357de46e7bd102f9ab7a5c67624ab58da6d9d75");
    (123, "cc63be92e3a900cd067da89473b61b40579b54ef54f8305c2ffcc893743792e9");
    (124, "865447fc4fae01471f2fc973bfb448de00217521ef02e3214d5177ea89c3ef31");
    (125, "3daa582f9563601e290f3cd6d304bff7e25a9ee42a34ffbac5cf2bf40134e0d4");
    (126, "5dda7cb7c2282a55676f8ad5c448092f4a9ebd65338b07ed224fcd7b6c73f5ef");
    (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
    (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
    (129, "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135");
    (130, "8d39b60b9c767c58975b270c1d6b13c9b4507e5aee7ad496a3528e4c7f880721");
    (1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d") ]

let test_sha_lengths () =
  List.iter
    (fun (n, expected) ->
      check Alcotest.string (Printf.sprintf "length %d" n) expected
        (Sha256.to_hex (Sha256.digest (String.init n (fun k -> Char.chr (k mod 251))))))
    sha_length_vectors

let test_sha_million_a () =
  check Alcotest.string "10^6 x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha_incremental () =
  (* Feeding in arbitrary splits must match the one-shot digest. *)
  let s = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let expected = Sha256.digest s in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec go i =
        if i < String.length s then begin
          let len = min chunk (String.length s - i) in
          Sha256.feed ctx (String.sub s i len);
          go (i + len)
        end
      in
      go 0;
      checkb (Printf.sprintf "chunk %d" chunk) true (Sha256.finalize ctx = expected))
    [ 1; 3; 63; 64; 65; 1000 ]

let test_sha_digest_list () =
  checkb "digest_list = digest of concat" true
    (Sha256.digest_list [ "foo"; "bar"; "baz" ] = Sha256.digest "foobarbaz")

let test_hmac_rfc4231 () =
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.to_hex (Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.to_hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  check Alcotest.string "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.to_hex
       (Sha256.hmac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* One-shot calls share one domain-local context: calls made while a
   streaming [init] context is live must leave both answers intact. *)
let test_sha_one_shot_interleaved () =
  let n = 1000 in
  let s = String.init n (fun k -> Char.chr (k mod 251)) in
  let expected = List.assoc n sha_length_vectors in
  let ctx = Sha256.init () in
  let one_shots round =
    List.iter
      (fun (input, hex) ->
        check Alcotest.string (Printf.sprintf "digest, round %d" round) hex
          (Sha256.to_hex (Sha256.digest input)))
      sha_vectors;
    let m = (round * 13) mod 131 in
    check Alcotest.string (Printf.sprintf "digest_list, round %d" round)
      (List.assoc m sha_length_vectors)
      (Sha256.to_hex
         (Sha256.digest_list
            (List.init m (fun k -> String.make 1 (Char.chr (k mod 251))))));
    check Alcotest.string (Printf.sprintf "hmac, round %d" round)
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
      (Sha256.to_hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))
  in
  let pos = ref 0 and round = ref 0 in
  while !pos < n do
    (* Uneven chunks leave the streaming buffer part-full between calls. *)
    let len = min (1 + ((!round * 37) mod 90)) (n - !pos) in
    Sha256.feed ctx (String.sub s !pos len);
    one_shots !round;
    pos := !pos + len;
    incr round
  done;
  check Alcotest.string "streamed digest" expected (Sha256.to_hex (Sha256.finalize ctx));
  one_shots !round

let test_to_hex_all_bytes () =
  let s = String.init 256 Char.chr in
  let reference =
    String.concat "" (List.init 256 (fun b -> Printf.sprintf "%02x" b))
  in
  check Alcotest.string "every byte value" reference (Sha256.to_hex s);
  check Alcotest.string "empty" "" (Sha256.to_hex "")

(* [blocks] counts compression calls: a message of [n] bytes takes
   [n / 64 + 1] blocks when [n mod 64 < 56], else one more. *)
let test_sha_blocks () =
  List.iter
    (fun (n, want) ->
      let before = Sha256.blocks () in
      ignore (Sha256.digest (String.make n 'x'));
      check Alcotest.int (Printf.sprintf "%d bytes" n) want (Sha256.blocks () - before))
    [ (0, 1); (55, 1); (56, 2); (64, 2); (119, 2); (120, 3); (1000, 16) ]

(* --- Field61 ------------------------------------------------------------ *)

let test_field_basics () =
  checkb "p is 2^61-1" true (Field61.p = (1 lsl 61) - 1);
  checkb "canonical of_int" true (Field61.to_int (Field61.of_int Field61.p) = 0);
  checkb "negative of_int" true
    (Field61.equal (Field61.of_int (-1)) (Field61.of_int (Field61.p - 1)))

let suite_field =
  [ qtest "mul matches double-and-add reference"
      QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.mul a b) (Field61.mul_slow a b));
    qtest "addition commutes" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.add a b) (Field61.add b a));
    qtest "multiplication commutes" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.mul a b) (Field61.mul b a));
    qtest "distributivity" QCheck.(triple field_gen field_gen field_gen)
      (fun (a, b, c) ->
        Field61.equal
          (Field61.mul a (Field61.add b c))
          (Field61.add (Field61.mul a b) (Field61.mul a c)));
    qtest "sub inverts add" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.sub (Field61.add a b) b) a);
    qtest "inverse law" field_gen (fun a ->
        QCheck.assume (not (Field61.equal a Field61.zero));
        Field61.equal (Field61.mul a (Field61.inv a)) Field61.one);
    qtest ~count:50 "pow matches repeated mul" QCheck.(pair field_gen (int_bound 200))
      (fun (a, e) ->
        let rec naive acc i = if i = 0 then acc else naive (Field61.mul acc a) (i - 1) in
        Field61.equal (Field61.pow a e) (naive Field61.one e));
    qtest ~count:50 "fermat little theorem" field_gen (fun a ->
        QCheck.assume (not (Field61.equal a Field61.zero));
        Field61.equal (Field61.pow a (Field61.p - 1)) Field61.one) ]

let test_field_random_range () =
  for _ = 1 to 1000 do
    let x = Field61.to_int (Field61.random next64) in
    assert (x >= 0 && x < Field61.p)
  done

(* --- Schnorr --------------------------------------------------------------- *)

let test_schnorr_roundtrip () =
  let sk, pk = Schnorr.keygen next64 in
  let s = Schnorr.sign sk "the message" in
  checkb "verifies" true (Schnorr.verify pk "the message" s);
  checkb "wrong message fails" false (Schnorr.verify pk "the messagE" s);
  let _, pk2 = Schnorr.keygen next64 in
  checkb "wrong key fails" false (Schnorr.verify pk2 "the message" s);
  checkb "garbage fails" false (Schnorr.verify pk "the message" (Schnorr.forge_garbage ()))

let test_schnorr_deterministic () =
  let sk, pk = Schnorr.keygen_deterministic ~seed:"alice" in
  let _, pk' = Schnorr.keygen_deterministic ~seed:"alice" in
  checkb "same seed same key" true
    (Field61.equal (Schnorr.public_key_of_secret sk) pk && Field61.equal pk pk');
  let _, pk2 = Schnorr.keygen_deterministic ~seed:"bob" in
  checkb "different seed different key" false (Field61.equal pk pk2);
  checkb "deterministic signatures" true
    (Schnorr.signature_equal (Schnorr.sign sk "m") (Schnorr.sign sk "m"))

let suite_schnorr_props =
  [ qtest ~count:100 "sign/verify for arbitrary messages" QCheck.string (fun m ->
        let sk, pk = Schnorr.keygen_deterministic ~seed:"prop" in
        Schnorr.verify pk m (Schnorr.sign sk m));
    qtest ~count:100 "batch verification accepts honest batches"
      QCheck.(list_of_size (Gen.int_range 1 20) small_string)
      (fun msgs ->
        let entries =
          List.mapi
            (fun i m ->
              let sk, pk = Schnorr.keygen_deterministic ~seed:(string_of_int i) in
              (pk, m, Schnorr.sign sk m))
            msgs
        in
        Schnorr.batch_verify entries);
    qtest ~count:100 "batch verification rejects any corrupted entry"
      QCheck.(pair (int_bound 9) (list_of_size (Gen.return 10) small_string))
      (fun (bad, msgs) ->
        let entries =
          List.mapi
            (fun i m ->
              let sk, pk = Schnorr.keygen_deterministic ~seed:(string_of_int i) in
              let s = Schnorr.sign sk m in
              if i = bad then (pk, m, Schnorr.forge_garbage ()) else (pk, m, s))
            msgs
        in
        not (Schnorr.batch_verify entries)) ]

let test_batch_verify_empty () = checkb "empty batch ok" true (Schnorr.batch_verify [])

(* --- Multisig ----------------------------------------------------------------- *)

let keys n = List.init n (fun i -> Multisig.keygen_deterministic ~seed:("ms" ^ string_of_int i))

let test_multisig_single () =
  let sk, pk = Multisig.keygen next64 in
  let s = Multisig.sign sk "root" in
  checkb "single share verifies" true (Multisig.verify pk "root" s);
  checkb "wrong message fails" false (Multisig.verify pk "toor" s)

let test_multisig_aggregate () =
  let ks = keys 8 in
  let shares = List.map (fun (sk, _) -> Multisig.sign sk "root") ks in
  let agg = Multisig.aggregate_signatures shares in
  let pks = List.map snd ks in
  checkb "aggregate verifies" true (Multisig.verify_multi pks "root" agg);
  checkb "subset of keys fails" false
    (Multisig.verify_multi (List.tl pks) "root" agg);
  checkb "superset of keys fails" false
    (Multisig.verify_multi (snd (Multisig.keygen next64) :: pks) "root" agg)

let test_multisig_partial_aggregation () =
  (* Aggregation is associative: combining partial aggregates works
     (the broker's tree-search relies on this). *)
  let ks = keys 6 in
  let shares = List.map (fun (sk, _) -> Multisig.sign sk "r") ks in
  let left = Multisig.aggregate_signatures (List.filteri (fun i _ -> i < 3) shares) in
  let right = Multisig.aggregate_signatures (List.filteri (fun i _ -> i >= 3) shares) in
  let agg = Multisig.aggregate_signatures [ left; right ] in
  checkb "partial aggregates compose" true
    (Multisig.verify_multi (List.map snd ks) "r" agg)

let test_multisig_secret_aggregation () =
  (* The workload generator's shortcut: the sum of secrets signs like the
     aggregate of the shares. *)
  let ks = keys 5 in
  let agg_sk = Multisig.aggregate_secret_keys (List.map fst ks) in
  let direct = Multisig.sign agg_sk "root" in
  let agg =
    Multisig.aggregate_signatures (List.map (fun (sk, _) -> Multisig.sign sk "root") ks)
  in
  checkb "sum-of-secrets = aggregate-of-shares" true (Multisig.signature_equal direct agg)

let test_multisig_diff_secrets () =
  let ks = keys 4 in
  let all = Multisig.aggregate_secret_keys (List.map fst ks) in
  let head = Multisig.aggregate_secret_keys [ List.hd (List.map fst ks) ] in
  let tail_sk = Multisig.diff_secret_keys all head in
  let agg_tail =
    Multisig.aggregate_signatures
      (List.map (fun (sk, _) -> Multisig.sign sk "z") (List.tl ks))
  in
  checkb "diff of secrets signs like the tail" true
    (Multisig.signature_equal (Multisig.sign tail_sk "z") agg_tail)

let test_find_invalid () =
  let ks = keys 16 in
  let entries =
    List.mapi
      (fun i (sk, pk) ->
        let s = if i = 3 || i = 11 then Multisig.forge_garbage () else Multisig.sign sk "m" in
        (pk, s))
      ks
  in
  Alcotest.(check (list int)) "finds exactly the bad shares" [ 3; 11 ]
    (Multisig.find_invalid entries "m");
  let all_good = List.map (fun (sk, pk) -> (pk, Multisig.sign sk "m")) ks in
  Alcotest.(check (list int)) "no false positives" [] (Multisig.find_invalid all_good "m")

let suite_multisig_props =
  [ qtest ~count:60 "find_invalid locates arbitrary corruption patterns"
      QCheck.(list_of_size (Gen.int_range 1 24) bool)
      (fun pattern ->
        let entries =
          List.mapi
            (fun i bad ->
              let sk, pk = Multisig.keygen_deterministic ~seed:("fi" ^ string_of_int i) in
              (pk, if bad then Multisig.forge_garbage () else Multisig.sign sk "x"))
            pattern
        in
        let found = Multisig.find_invalid entries "x" in
        let expected =
          List.mapi (fun i bad -> (i, bad)) pattern
          |> List.filter_map (fun (i, bad) -> if bad then Some i else None)
        in
        found = expected) ]

(* --- Merkle ----------------------------------------------------------------- *)

let test_merkle_roundtrip () =
  List.iter
    (fun n ->
      let leaves = Array.init n (fun i -> "leaf" ^ string_of_int i) in
      let t = Merkle.build leaves in
      Alcotest.(check int) "leaf_count" n (Merkle.leaf_count t);
      for i = 0 to n - 1 do
        let proof = Merkle.prove t i in
        checkb
          (Printf.sprintf "n=%d i=%d verifies" n i)
          true
          (Merkle.verify (Merkle.root t) ~leaf:leaves.(i) proof);
        Alcotest.(check int) "proof index" i (Merkle.proof_index proof)
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33; 100 ]

let test_merkle_rejects () =
  let leaves = Array.init 10 (fun i -> "L" ^ string_of_int i) in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 4 in
  checkb "wrong leaf fails" false (Merkle.verify (Merkle.root t) ~leaf:"L5" proof);
  let t2 = Merkle.build (Array.map (fun l -> l ^ "!") leaves) in
  checkb "wrong root fails" false (Merkle.verify (Merkle.root t2) ~leaf:"L4" proof)

let test_merkle_empty () =
  Alcotest.check_raises "empty vector rejected"
    (Invalid_argument "Merkle.build: empty leaf vector") (fun () ->
      ignore (Merkle.build [||]))

let test_merkle_out_of_range () =
  let t = Merkle.build [| "a"; "b" |] in
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Merkle.prove: index out of range") (fun () ->
      ignore (Merkle.prove t 2))

let test_merkle_distinct_roots () =
  (* Domain separation: a two-leaf tree's root differs from the leaf hash
     of the concatenation. *)
  let t1 = Merkle.build [| "ab" |] in
  let t2 = Merkle.build [| "a"; "b" |] in
  checkb "no leaf/node confusion" false
    (Merkle.root_equal (Merkle.root t1) (Merkle.root t2))

let test_merkle_proof_size () =
  let t = Merkle.build (Array.init 65536 string_of_int) in
  let proof = Merkle.prove t 12345 in
  Alcotest.(check int) "depth 16 for 65,536 leaves" 16 (Merkle.proof_length proof);
  Alcotest.(check int) "wire size" ((16 * 32) + 8) (Merkle.proof_size_bytes proof)

(* [patch] hashes only the replaced leaves and their ancestors, and a
   promoted node costs nothing.  Over 5 leaves (levels of 5, 3, 2 and 1
   nodes) leaf 4 is promoted twice, so replacing it costs its leaf hash
   (1 block) and the root's (65 bytes, 2 blocks). *)
let test_merkle_patch () =
  let leaves = Array.init 5 (Printf.sprintf "L%d") in
  let t = Merkle.build leaves in
  let root0 = Merkle.root t in
  let blocks f =
    let before = Sha256.blocks () in
    let r = f () in
    (r, Sha256.blocks () - before)
  in
  let p, b = blocks (fun () -> Merkle.patch t []) in
  checkb "no change: the tree itself" true (p == t);
  Alcotest.(check int) "no change: no hashing" 0 b;
  let p, b = blocks (fun () -> Merkle.patch t [ (4, "x") ]) in
  let replaced = Array.copy leaves in
  replaced.(4) <- "x";
  checkb "promoted leaf" true
    (Merkle.root_equal (Merkle.root p) (Merkle.root (Merkle.build replaced)));
  Alcotest.(check int) "promoted leaf: leaf and root hashes" 3 b;
  checkb "the source tree is untouched" true (Merkle.root_equal (Merkle.root t) root0);
  checkb "its proofs too" true
    (Merkle.verify root0 ~leaf:"L4" (Merkle.prove t 4));
  List.iter
    (fun changes ->
      Alcotest.check_raises "bad indices"
        (Invalid_argument "Merkle.patch: indices out of range or not increasing")
        (fun () -> ignore (Merkle.patch t changes)))
    [ [ (5, "x") ]; [ (-1, "x") ]; [ (2, "x"); (1, "y") ]; [ (3, "x"); (3, "y") ] ]

(* A leaf vector of 1-300 leaves and a set of replacements: none, every
   leaf, a sparse random subset or a dense one. *)
let arb_replacements =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 300 in
    let* mode = int_bound 3 in
    let* picked =
      match mode with
      | 0 -> return []
      | 1 -> return (List.init n Fun.id)
      | 2 -> map (List.sort_uniq compare) (list_size (int_range 1 8) (int_bound (n - 1)))
      | _ ->
        map
          (fun keep -> List.concat (List.mapi (fun i k -> if k then [ i ] else []) keep))
          (list_repeat n bool)
    in
    let* tag = string_size ~gen:printable (int_range 1 6) in
    return (n, List.map (fun i -> (i, Printf.sprintf "%s%d" tag i)) picked)
  in
  let print (n, changes) =
    Printf.sprintf "n=%d changes=[%s]" n
      (String.concat ";" (List.map (fun (i, l) -> Printf.sprintf "%d:%S" i l) changes))
  in
  QCheck.make ~print gen

let suite_merkle_props =
  [ qtest ~count:300 "patch equals the rebuilt tree: its root and every proof"
      arb_replacements
      (fun (n, changes) ->
        let leaves = Array.init n (Printf.sprintf "leaf%d") in
        let replaced = Array.copy leaves in
        List.iter (fun (i, l) -> replaced.(i) <- l) changes;
        let patched = Merkle.patch (Merkle.build leaves) changes in
        let rebuilt = Merkle.build replaced in
        Merkle.root_equal (Merkle.root patched) (Merkle.root rebuilt)
        && List.for_all
             (fun i -> Merkle.prove patched i = Merkle.prove rebuilt i)
             (List.init n Fun.id));
    qtest ~count:100 "random trees: every proof verifies, flipped leaf changes root"
      QCheck.(list_of_size (Gen.int_range 2 40) small_string)
      (fun leaves ->
        let arr = Array.of_list leaves in
        let t = Merkle.build arr in
        let ok = ref true in
        Array.iteri
          (fun i leaf ->
            if not (Merkle.verify (Merkle.root t) ~leaf (Merkle.prove t i)) then ok := false)
          arr;
        let arr2 = Array.copy arr in
        arr2.(0) <- arr2.(0) ^ "~";
        !ok && not (Merkle.root_equal (Merkle.root t) (Merkle.root (Merkle.build arr2)))) ]

let () =
  Alcotest.run "crypto"
    [ ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
         Alcotest.test_case "every length 0-130 and 1000" `Quick test_sha_lengths;
         Alcotest.test_case "million a" `Slow test_sha_million_a;
         Alcotest.test_case "incremental feeding" `Quick test_sha_incremental;
         Alcotest.test_case "digest_list" `Quick test_sha_digest_list;
         Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
         Alcotest.test_case "one-shots between streaming feeds" `Quick
           test_sha_one_shot_interleaved;
         Alcotest.test_case "to_hex every byte" `Quick test_to_hex_all_bytes;
         Alcotest.test_case "block count" `Quick test_sha_blocks ]);
      ("field61",
       Alcotest.test_case "basics" `Quick test_field_basics
       :: Alcotest.test_case "random range" `Quick test_field_random_range
       :: suite_field);
      ("schnorr",
       Alcotest.test_case "roundtrip" `Quick test_schnorr_roundtrip
       :: Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic
       :: Alcotest.test_case "empty batch" `Quick test_batch_verify_empty
       :: suite_schnorr_props);
      ("multisig",
       Alcotest.test_case "single" `Quick test_multisig_single
       :: Alcotest.test_case "aggregate" `Quick test_multisig_aggregate
       :: Alcotest.test_case "partial aggregation" `Quick test_multisig_partial_aggregation
       :: Alcotest.test_case "secret aggregation" `Quick test_multisig_secret_aggregation
       :: Alcotest.test_case "diff secrets" `Quick test_multisig_diff_secrets
       :: Alcotest.test_case "find_invalid" `Quick test_find_invalid
       :: suite_multisig_props);
      ("merkle",
       Alcotest.test_case "roundtrip all sizes" `Quick test_merkle_roundtrip
       :: Alcotest.test_case "rejects" `Quick test_merkle_rejects
       :: Alcotest.test_case "empty" `Quick test_merkle_empty
       :: Alcotest.test_case "out of range" `Quick test_merkle_out_of_range
       :: Alcotest.test_case "domain separation" `Quick test_merkle_distinct_roots
       :: Alcotest.test_case "proof size" `Quick test_merkle_proof_size
       :: Alcotest.test_case "patch" `Quick test_merkle_patch
       :: suite_merkle_props) ]
