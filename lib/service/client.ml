(* Thin synchronous client for the `alive serve` daemon. One connection,
   one in-flight request at a time (the protocol answers in order, so a
   caller wanting pipelining opens more connections — alive corpus verify
   --via opens one per worker thread). *)

module Json = Alive_trace.Json

type t = {
  ic : in_channel;
  oc : out_channel;
  fd : Unix.file_descr;
  mutable next_id : int;
  mutable closed : bool;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Ok
        {
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          fd;
          next_id = 1;
          closed = false;
        }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error
        (Printf.sprintf "cannot connect to daemon at %s: %s" path
           (Unix.error_message e))

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* One close: ic, oc and fd share the descriptor. *)
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let call t ~op ?rid ?args () =
  if t.closed then Error "connection is closed"
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    match
      Protocol.write_frame t.oc (Protocol.request ~id ~op ?rid ?args ())
    with
    | exception Sys_error e -> Error ("write failed: " ^ e)
    | () -> (
        match Protocol.read_frame t.ic with
        | Error Protocol.Closed -> Error "daemon closed the connection"
        | Error (Protocol.Framing e) | Error (Protocol.Payload e) ->
            Error ("bad response frame: " ^ e)
        | Ok resp -> (
            match Protocol.response_id resp with
            | Json.Int rid when rid <> id ->
                Error
                  (Printf.sprintf "response id %d does not match request %d"
                     rid id)
            | _ -> Protocol.parse_response resp))
  end

(* --- Convenience wrappers --- *)

let ping t = call t ~op:"ping" ()

let shutdown t = call t ~op:"shutdown" ()

let metrics t = call t ~op:"metrics" ()

let metrics_prom t =
  match call t ~op:"metrics-prom" () with
  | Error _ as e -> e
  | Ok j -> (
      match Option.bind (Json.member "text" j) Json.to_str with
      | Some text -> Ok text
      | None -> Error "malformed metrics-prom response: no text field")

let store_stats t = call t ~op:"store-stats" ()

let explain t ?rid ?name ?widths ~text () =
  let args =
    [ ("text", Json.String text) ]
    @ (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
    @
    match widths with
    | Some ws -> [ ("widths", Json.List (List.map (fun w -> Json.Int w) ws)) ]
    | None -> []
  in
  call t ~op:"explain" ?rid ~args:(Json.Obj args) ()

let explain_digest t ?rid digest =
  call t ~op:"explain" ?rid
    ~args:(Json.Obj [ ("digest", Json.String digest) ])
    ()

let trace_dump t = call t ~op:"trace" ()

let verify t ?rid ?name ?widths ?timeout ?conflict_limit ?(spans = false)
    ~text () =
  let args =
    [ ("text", Json.String text) ]
    @ (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
    @ (match widths with
      | Some ws -> [ ("widths", Json.List (List.map (fun w -> Json.Int w) ws)) ]
      | None -> [])
    @ (match timeout with
      | Some s -> [ ("timeout", Json.Float s) ]
      | None -> [])
    @ (if spans then [ ("spans", Json.Bool true) ] else [])
    @
    match conflict_limit with
    | Some c -> [ ("conflicts", Json.Int c) ]
    | None -> []
  in
  call t ~op:"verify" ?rid ~args:(Json.Obj args) ()

let parse t ~text =
  call t ~op:"parse" ~args:(Json.Obj [ ("text", Json.String text) ]) ()

let lint t ~text =
  call t ~op:"lint" ~args:(Json.Obj [ ("text", Json.String text) ]) ()

let digests t ?name ?widths ~text () =
  let args =
    [ ("text", Json.String text) ]
    @ (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
    @
    match widths with
    | Some ws -> [ ("widths", Json.List (List.map (fun w -> Json.Int w) ws)) ]
    | None -> []
  in
  call t ~op:"digests" ~args:(Json.Obj args) ()

let infer_pre t ?name ?timeout ?conflict_limit ~text () =
  let args =
    [ ("text", Json.String text) ]
    @ (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
    @ (match timeout with
      | Some s -> [ ("timeout", Json.Float s) ]
      | None -> [])
    @
    match conflict_limit with
    | Some c -> [ ("conflicts", Json.Int c) ]
    | None -> []
  in
  call t ~op:"infer-pre" ~args:(Json.Obj args) ()
