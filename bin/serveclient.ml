(* Serveclient — the client side of `rcc serve`, shared by the smoke
   and load drivers: boot a server on an ephemeral port, send it one
   HTTP/1.1 request, stop it and collect its stderr.

   No server outlives its driver.  Every server booted here is reaped
   at exit, whatever the exit: a failed check ({!fail}), an uncaught
   exception or the {!watchdog} alarm SIGTERMs it, then SIGKILLs it
   if it has not exited within a grace period. *)

let prog = Filename.remove_extension (Filename.basename Sys.executable_name)

(* Servers booted and not yet reaped. *)
let live : int list ref = ref []

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let reap_all () =
  let pids = !live in
  live := [];
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  let deadline = Unix.gettimeofday () +. 5.0 in
  List.iter
    (fun pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.05;
            wait ()
        | 0, _ ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (waitpid pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error _ -> ()
      in
      wait ())
    pids

let () = at_exit reap_all

let fail fmt =
  Format.kasprintf (fun m -> prerr_endline (prog ^ ": " ^ m); exit 1) fmt

(* Fail (and so reap every server) once [seconds] have passed. *)
let watchdog seconds =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> fail "timed out after %d s" seconds));
  ignore (Unix.alarm seconds)

(* A bare relative name must not send create_process or the shell
   hunting down PATH. *)
let executable path =
  if Filename.is_implicit path then Filename.concat Filename.current_dir_name path
  else path

(* --- HTTP/1.1 client (Connection: close per request) --------------------- *)

let find_body raw =
  let rec scan i =
    if i + 3 >= String.length raw then None
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then Some (String.sub raw (i + 4) (String.length raw - i - 4))
    else scan (i + 1)
  in
  scan 0

(* Returns (status, body); raises [Unix_error] on connection trouble
   and [Failure] on a malformed response. *)
let request ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring fd req off (String.length req - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      match String.index_opt raw ' ' with
      | None -> failwith "no status line"
      | Some sp -> (
          let status = int_of_string (String.sub raw (sp + 1) 3) in
          match find_body raw with
          | Some b -> (status, b)
          | None -> failwith "no header/body separator"))

(* --- server lifecycle ---------------------------------------------------- *)

type server = {
  pid : int;
  port : int;
  err : Buffer.t;  (** stderr so far, guarded by [err_mu] *)
  err_mu : Mutex.t;
  drainer : unit Domain.t;
  mutable termed : bool;
}

(* `RCC serve --port 0 ARGS`.  Stderr is read up to the announce line
   for the bound port, then drained as it arrives so the server never
   blocks on a full pipe. *)
let spawn rcc args =
  let rcc = executable rcc in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process rcc
      (Array.of_list (rcc :: "serve" :: "--port" :: "0" :: args))
      Unix.stdin Unix.stdout err_w
  in
  live := pid :: !live;
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let err = Buffer.create 4096 and err_mu = Mutex.create () in
  let add line =
    Mutex.protect err_mu (fun () ->
        Buffer.add_string err line;
        Buffer.add_char err '\n')
  in
  let rec announce () =
    match input_line ic with
    | exception End_of_file -> fail "server exited before announcing a port"
    | line -> (
        add line;
        match
          Scanf.sscanf_opt line "rcc serve: listening on http://%[^:]:%d"
            (fun _host p -> p)
        with
        | Some p -> p
        | None -> announce ())
  in
  let port = announce () in
  let drainer =
    Domain.spawn (fun () ->
        (try
           while true do
             add (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
  in
  { pid; port; err; err_mu; drainer; termed = false }

let sigterm s =
  if not s.termed then begin
    s.termed <- true;
    Unix.kill s.pid Sys.sigterm
  end

(* SIGTERM (unless already sent), require exit 0, and return everything
   the server wrote to stderr. *)
let stop ?(what = "server") s =
  sigterm s;
  let status = waitpid s.pid in
  live := List.filter (fun p -> p <> s.pid) !live;
  Domain.join s.drainer;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "%s exited %d after SIGTERM" what n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "%s killed by signal %d" what n);
  Mutex.protect s.err_mu (fun () -> Buffer.contents s.err)
