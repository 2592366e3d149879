type t = { ic : in_channel; oc : out_channel }

let close c =
  (* The two channels share one descriptor; closing the output channel
     closes it, so the input side is only cleaned up shallowly. *)
  close_out_noerr c.oc

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let c = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd } in
  Protocol.send_request c.oc
    (Hello { version = Protocol.version; stamp = Protocol.build_stamp });
  match Protocol.recv_reply c.ic with
  | Hello_ok _ -> c
  | Protocol_error msg ->
      close c;
      failwith ("server refused connection: " ^ msg)
  | _ ->
      close c;
      failwith "server sent an unexpected handshake reply"
  | exception e ->
      close c;
      raise e

let roundtrip c q =
  Protocol.send_request c.oc q;
  Protocol.recv_reply c.ic

(* Replies were marshalled by the daemon; re-intern each report so it
   prints and compares exactly like a local verification. *)
let rehash_replies rs =
  List.map
    (function
      | Protocol.Verified r ->
          Protocol.Verified (Liquid_driver.Pipeline.rehash_report r)
      | Protocol.Rejected _ as r -> r)
    rs

let post c batch = Protocol.send_request c.oc (Protocol.Verify batch)

let collect c =
  match Protocol.recv_reply c.ic with
  | Results rs -> rehash_replies rs
  | Protocol_error msg -> failwith ("server error: " ^ msg)
  | _ -> failwith "server sent an unexpected reply to Verify"

let verify c batch =
  post c batch;
  collect c

let stats c =
  match roundtrip c Protocol.Stats with
  | Stats_reply s -> s
  | Protocol_error msg -> failwith ("server error: " ^ msg)
  | _ -> failwith "server sent an unexpected reply to Stats"

let shutdown c =
  match roundtrip c Protocol.Shutdown with
  | Bye -> ()
  | Protocol_error msg -> failwith ("server error: " ^ msg)
  | _ -> failwith "server sent an unexpected reply to Shutdown"

let with_connection sock f =
  let c = connect sock in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)
