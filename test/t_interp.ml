(* Tests for rc_interp: reference semantics, memory, calls, profiling. *)

open Rc_isa
open Rc_ir
module B = Builder
module I = Rc_interp.Interp
module P = Rc_interp.Profile

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_out = Alcotest.(check (list int64))

let run build =
  let prog = B.program ~entry:"main" in
  build prog;
  I.run prog

let test_arithmetic () =
  let out =
    run (fun prog ->
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               let x = B.cint b 100 in
               B.emit b (B.divi b x 7L);
               B.emit b (B.remi b x 7L);
               B.emit b (B.divi b x 0L);
               B.emit b (B.srai b (B.cint b (-32)) 2L);
               B.halt b)))
  in
  check_out "arith" [ 14L; 2L; 0L; -8L ] out.I.output

let test_float_ops () =
  let out =
    run (fun prog ->
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               let x = B.cf b 2.5 in
               let y = B.cf b 4.0 in
               B.femit b (B.fmul b x y);
               B.femit b (B.fneg b x);
               B.emit b (B.ftoi b (B.fadd b x y));
               B.emit b (B.fcmp b Opcode.Lt x y);
               let z = B.itof b (B.cint b 3) in
               B.femit b z;
               B.halt b)))
  in
  check_out "floats"
    [
      Int64.bits_of_float 10.0;
      Int64.bits_of_float (-2.5);
      6L;
      1L;
      Int64.bits_of_float 3.0;
    ]
    out.I.output

let test_memory_widths () =
  let out =
    run (fun prog ->
        B.global prog "g" ~bytes:16 ();
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               let p = B.addr b "g" in
               B.store b ~src:(B.ci b 0x0102030405060708L) p;
               B.emit b (B.loadb b p) (* little endian: low byte first *);
               B.emit b (B.loadb b ~off:7 p);
               B.storeb b ~src:(B.cint b 0x1FF) ~off:1 p;
               B.emit b (B.load b p);
               B.halt b)))
  in
  check_out "memory"
    [ 0x08L; 0x01L; 0x010203040506FF08L ]
    out.I.output

let test_global_initialisers () =
  let out =
    run (fun prog ->
        Rc_workloads.Wutil.global_words prog "w" [| 11L; 22L |];
        Rc_workloads.Wutil.global_bytes prog "s" "AB";
        Rc_workloads.Wutil.global_doubles prog "d" [| 1.25 |];
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               B.emit b (B.load b ~off:8 (B.addr b "w"));
               B.emit b (B.loadb b ~off:1 (B.addr b "s"));
               B.femit b (B.fload b (B.addr b "d"));
               B.halt b)))
  in
  check_out "inits" [ 22L; 66L; Int64.bits_of_float 1.25 ] out.I.output

let test_call_stack () =
  let out =
    run (fun prog ->
        let _f =
          B.define prog "fib" ~params:[ Reg.Int ] ~ret:Reg.Int (fun b params ->
              let n = List.hd params in
              let r = B.fresh b Reg.Int in
              B.if_ b Opcode.Lt n (B.cint b 2)
                ~then_:(fun () -> B.mov b ~dst:r ~src:n)
                ~else_:(fun () ->
                  let a = B.call_i b "fib" [ B.subi b n 1L ] in
                  let c = B.call_i b "fib" [ B.subi b n 2L ] in
                  B.assign b r (B.add b a c))
                ();
              B.ret b (Some r))
        in
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               B.emit b (B.call_i b "fib" [ B.cint b 10 ]);
               B.halt b)))
  in
  check_out "fib 10" [ 55L ] out.I.output

let test_profile_counts () =
  let prog = B.program ~entry:"main" in
  let _leaf =
    B.define prog "leaf" ~params:[] ~ret:Reg.Int (fun b _ ->
        B.ret b (Some (B.cint b 1)))
  in
  let f =
    B.define prog "main" ~params:[] (fun b _ ->
        let acc = B.cint b 0 in
        B.for_n b ~start:0 ~stop:5 (fun _ ->
            B.assign b acc (B.add b acc (B.call_i b "leaf" [])));
        B.emit b acc;
        B.halt b)
  in
  let out = I.run prog in
  let p = out.I.profile in
  check "call count" 5 (P.call_count p "leaf");
  (* the loop body runs 5 times *)
  let body =
    List.find
      (fun (b : Block.t) ->
        List.exists (fun op -> Op.is_call op) b.Block.ops)
      f.Func.blocks
  in
  check "body weight" 5 (P.weight p ~func:"main" ~block:body.Block.id);
  (* the back branch in the header is taken 5 of 6 times *)
  let header =
    List.find
      (fun (b : Block.t) ->
        match b.Block.term with Op.Br _ -> true | _ -> false)
      f.Func.blocks
  in
  check_bool "header predicted taken" true
    (P.predict_taken p ~func:"main" ~block:header.Block.id)

let test_checksum_order_sensitivity () =
  let o1 =
    run (fun prog ->
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               B.emit b (B.cint b 1);
               B.emit b (B.cint b 2);
               B.halt b)))
  in
  let o2 =
    run (fun prog ->
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               B.emit b (B.cint b 2);
               B.emit b (B.cint b 1);
               B.halt b)))
  in
  check_bool "order-sensitive checksum" true (o1.I.checksum <> o2.I.checksum)

let test_fuel () =
  let prog = B.program ~entry:"main" in
  let _ =
    B.define prog "main" ~params:[] (fun b _ ->
        let i = B.cint b 0 in
        B.while_ b ~cond:(fun () -> (Opcode.Ge, i, i)) ~body:(fun () -> ());
        B.halt b)
  in
  Alcotest.check_raises "out of fuel" I.Out_of_fuel (fun () ->
      ignore (I.run ~fuel:1000 prog))

(* An address near [max_int] must not wrap past the bounds check. *)
let test_bad_address () =
  List.iter
    (fun addr ->
      let prog = B.program ~entry:"main" in
      let _ =
        B.define prog "main" ~params:[] (fun b _ ->
            B.emit b (B.load b (B.cint b addr));
            B.halt b)
      in
      check_bool (Fmt.str "bad address %d raises" addr) true
        (try
           ignore (I.run prog);
           false
         with I.Bad_address _ -> true))
    [ -8; max_int - 3 ]

let test_dyn_ops_counted () =
  let out =
    run (fun prog ->
        ignore
          (B.define prog "main" ~params:[] (fun b _ ->
               B.emit b (B.cint b 1);
               B.halt b)))
  in
  (* li, emit, halt terminator *)
  check "dyn ops" 3 out.I.dyn_ops

let suite =
  [
    ("integer arithmetic", `Quick, test_arithmetic);
    ("floating point", `Quick, test_float_ops);
    ("memory widths and endianness", `Quick, test_memory_widths);
    ("global initialisers", `Quick, test_global_initialisers);
    ("recursive calls", `Quick, test_call_stack);
    ("profiling counts", `Quick, test_profile_counts);
    ("checksum order sensitivity", `Quick, test_checksum_order_sensitivity);
    ("fuel bound", `Quick, test_fuel);
    ("bad address detection", `Quick, test_bad_address);
    ("dynamic op counting", `Quick, test_dyn_ops_counted);
  ]
