//! Client and server count the same bytes. Every client transport records
//! the response size from `Response::wire_len`, without re-serialising the
//! response; these tests pin that the figure matches what the server
//! wrote, on both server arms and for every TCP transport, including a
//! 256 KiB response.

use std::sync::Arc;

use portalws_wire::{
    Handler, HttpServer, HttpTransport, PooledTransport, Request, Response, ServerArm,
    ServerConfig, Transport,
};

const BIG: usize = 256 * 1024;

/// Echoes the request body; `/big` answers with a 256 KiB body instead.
fn handler() -> Arc<dyn Handler> {
    Arc::new(|req: &Request| {
        let body = if req.path == "/big" {
            vec![b'x'; BIG]
        } else {
            req.body.clone()
        };
        Response::ok("text/plain", body)
    })
}

/// Builds a client transport to an address.
type Connect = fn(&str) -> Box<dyn Transport>;

/// Every TCP client transport, built fresh against one server, with the
/// connections it opens for three calls.
const TRANSPORTS: [(&str, u64, Connect); 2] = [
    ("HttpTransport::new", 3, |a| Box::new(HttpTransport::new(a))),
    ("PooledTransport", 1, |a| Box::new(PooledTransport::new(a))),
];

#[test]
fn client_and_server_byte_counts_agree_on_both_arms() {
    for arm in [ServerArm::Blocking, ServerArm::Reactor] {
        for (name, connections, connect) in TRANSPORTS {
            let config = ServerConfig {
                arm,
                ..ServerConfig::with_workers(1)
            };
            let server = HttpServer::start_with(handler(), config, None).unwrap();
            let transport = connect(&server.addr().to_string());
            let requests = [
                Request::post("/echo", "hello"),
                Request::post("/big", "send a large body"),
                Request::post("/echo", vec![b'y'; 4096]),
            ];
            for req in requests {
                let big = req.path == "/big";
                let resp = transport.round_trip(req).unwrap();
                assert_eq!(resp.body.len() == BIG, big, "{arm:?} {name}");
            }
            let client = transport.stats().snapshot();
            let served = server.stats().snapshot();
            assert_eq!(client.requests, 3, "{arm:?} {name}: {client:?}");
            assert_eq!(served.requests, 3, "{arm:?} {name}: {served:?}");
            assert_eq!(client.connections, connections, "{arm:?} {name}");
            assert!(client.bytes_received > BIG as u64, "{arm:?} {name}");
            assert_eq!(
                client.bytes_sent, served.bytes_received,
                "{arm:?} {name}: request bytes"
            );
            assert_eq!(
                client.bytes_received, served.bytes_sent,
                "{arm:?} {name}: response bytes"
            );
            server.shutdown();
        }
    }
}
