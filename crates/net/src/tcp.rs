//! A blocking TCP transport over `std::net` — serialized envelopes
//! leaving the address space.
//!
//! The workspace is offline and dependency-free, so there is no async
//! runtime here: a [`TcpTransport`] owns one listening socket, a
//! blocking accept loop on its own thread, and one reader thread per
//! established connection. Readers park on `read_exact` and feed a
//! shared inbox; the protocol sessions stay poll-based and single
//! threaded, draining the inbox through [`TcpTransport::recv_bytes`]
//! exactly as they drain `MemTransport` queues.
//!
//! # Frame format
//!
//! Every frame is one length-prefixed routed payload:
//!
//! ```text
//! ┌────────────┬───────────┬──────────┬─────────┬────────┬─────────────┐
//! │ u32 LE len │ from_kind │ from_id  │ to_kind │ to_id  │ payload     │
//! │  (4 bytes) │  (1 byte) │ (u32 LE) │ (1 byte)│ (u32 LE│ (len − 10 B)│
//! └────────────┴───────────┴──────────┴─────────┴────────┴─────────────┘
//! ```
//!
//! `len` counts everything after the length word (the 10-byte routing
//! header plus the payload) and must lie in `[10, max_frame]`; a frame
//! whose prefix fails that check is rejected *before* any payload
//! allocation, and the connection is torn down. `kind` is `0` for
//! `Client(id)`, `1` for `Server` (id ignored). The payload is a
//! Wire-v2 [`lsa-protocol` envelope](https://docs.rs) encoding; this
//! crate treats it as opaque bytes. A zero-length payload is a control
//! frame (the dialer's hello) — it registers the peer's return route
//! and is never delivered to the inbox.
//!
//! # Accounting
//!
//! `bytes_sent`/`timings` mirror `SimTransport`: bytes count the
//! serialized payloads (not the 14-byte frame overhead), and
//! [`TcpTransport::flush_phase`] cuts a [`PhaseTiming`] whose
//! `messages`/`bytes` are the sends since the previous cut and whose
//! `arrivals` are the wall-clock receipt times (seconds since the
//! transport was created) of payloads drained in the window.

use crate::timing::PhaseTiming;
use crate::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default hard ceiling on a frame's declared length (64 MiB) — large
/// enough for multi-million-element model payloads, small enough that a
/// hostile length prefix cannot OOM the receiver.
pub(crate) const DEFAULT_MAX_FRAME: usize = 1 << 26;

/// Bytes of routing header inside every frame (after the length word).
const HEADER_LEN: usize = 10;

/// Framing overhead per payload frame: the 4-byte length word plus the
/// routing header. [`TcpTransport::framing_bytes`] accumulates this per
/// sent frame so byte accounting can separate payload (comparable
/// across transport backends) from wire overhead (TCP-only).
pub const FRAME_OVERHEAD: usize = 4 + HEADER_LEN;

const KIND_CLIENT: u8 = 0;
const KIND_SERVER: u8 = 1;

fn encode_node(buf: &mut Vec<u8>, node: NodeId) {
    match node {
        NodeId::Client(i) => {
            buf.push(KIND_CLIENT);
            buf.extend_from_slice(&(i as u32).to_le_bytes());
        }
        NodeId::Server => {
            buf.push(KIND_SERVER);
            buf.extend_from_slice(&0u32.to_le_bytes());
        }
    }
}

fn decode_node(kind: u8, id: u32) -> io::Result<NodeId> {
    match kind {
        KIND_CLIENT => Ok(NodeId::Client(id as usize)),
        KIND_SERVER => Ok(NodeId::Server),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown node kind {other:#04x} in frame header"),
        )),
    }
}

/// One routed payload delivered off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpDelivery {
    /// Sender address, as claimed by the frame header.
    pub from: NodeId,
    /// Destination address.
    pub to: NodeId,
    /// The opaque serialized envelope.
    pub payload: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inbox {
    /// (delivery, arrival time in seconds since transport epoch).
    queue: VecDeque<(TcpDelivery, f64)>,
    /// First fatal connection error observed by any reader thread;
    /// surfaced once the queue drains.
    failed: Option<String>,
}

#[derive(Debug)]
struct Shared {
    max_frame: usize,
    epoch: Instant,
    inbox: Mutex<Inbox>,
    available: Condvar,
    /// Write halves keyed by the peer the route reaches.
    routes: Mutex<HashMap<NodeId, TcpStream>>,
}

impl Shared {
    fn push(&self, delivery: TcpDelivery) {
        let arrived = self.epoch.elapsed().as_secs_f64();
        self.inbox
            .lock()
            .unwrap()
            .queue
            .push_back((delivery, arrived));
        self.available.notify_all();
    }

    fn fail(&self, err: &io::Error) {
        let mut inbox = self.inbox.lock().unwrap();
        if inbox.failed.is_none() {
            inbox.failed = Some(err.to_string());
        }
        self.available.notify_all();
    }
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream, max_frame: usize) -> io::Result<Option<TcpDelivery>> {
    let mut word = [0u8; 4];
    match stream.read_exact(&mut word) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(word) as usize;
    if len < HEADER_LEN || len > max_frame {
        // rejected before the payload allocation the prefix asks for
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER_LEN}, {max_frame}]"),
        ));
    }
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame)?;
    let from = decode_node(
        frame[0],
        u32::from_le_bytes(frame[1..5].try_into().unwrap()),
    )?;
    let to = decode_node(
        frame[5],
        u32::from_le_bytes(frame[6..10].try_into().unwrap()),
    )?;
    frame.drain(..HEADER_LEN);
    Ok(Some(TcpDelivery {
        from,
        to,
        payload: frame,
    }))
}

/// Park on `stream` until it closes, feeding every frame into the
/// shared inbox. The first frame from a peer also registers the
/// connection as the return route to that peer; empty payloads are
/// control frames and stop there.
fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    loop {
        match read_frame(&mut stream, shared.max_frame) {
            Ok(Some(delivery)) => {
                if let std::collections::hash_map::Entry::Vacant(slot) =
                    shared.routes.lock().unwrap().entry(delivery.from)
                {
                    if let Ok(clone) = stream.try_clone() {
                        slot.insert(clone);
                    }
                }
                if !delivery.payload.is_empty() {
                    shared.push(delivery);
                }
            }
            Ok(None) => return,
            Err(e) => {
                shared.fail(&e);
                return;
            }
        }
    }
}

/// A node's endpoint in a real TCP deployment: at most one listening
/// socket plus any number of dialed-out connections, multiplexed into
/// one FIFO inbox.
#[derive(Debug)]
pub struct TcpTransport {
    local: NodeId,
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
    bytes_sent: usize,
    messages_sent: usize,
    framing_bytes: usize,
    timings: Vec<PhaseTiming>,
    phase_mark: f64,
    phase_messages: usize,
    phase_bytes: usize,
    phase_arrivals: Vec<f64>,
}

impl TcpTransport {
    fn with_shared(local: NodeId, max_frame: usize) -> Self {
        Self {
            local,
            shared: Arc::new(Shared {
                max_frame,
                epoch: Instant::now(),
                inbox: Mutex::new(Inbox::default()),
                available: Condvar::new(),
                routes: Mutex::new(HashMap::new()),
            }),
            local_addr: None,
            bytes_sent: 0,
            messages_sent: 0,
            framing_bytes: 0,
            timings: Vec::new(),
            phase_mark: 0.0,
            phase_messages: 0,
            phase_bytes: 0,
            phase_arrivals: Vec::new(),
        }
    }

    /// A dial-only endpoint (no listening socket) with the default
    /// frame ceiling.
    pub fn new(local: NodeId) -> Self {
        Self::with_shared(local, DEFAULT_MAX_FRAME)
    }

    /// Bind `addr`, start the accept loop, and return the endpoint.
    /// Use `port 0` to let the OS pick; [`TcpTransport::local_addr`]
    /// reports the bound address.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(local: NodeId, addr: A) -> io::Result<Self> {
        Self::bind_with_max_frame(local, addr, DEFAULT_MAX_FRAME)
    }

    /// [`TcpTransport::bind`] with an explicit frame ceiling.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub(crate) fn bind_with_max_frame<A: ToSocketAddrs>(
        local: NodeId,
        addr: A,
        max_frame: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let mut t = Self::with_shared(local, max_frame);
        t.local_addr = Some(listener.local_addr()?);
        let shared = Arc::clone(&t.shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(s) => {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || reader_loop(s, shared));
                    }
                    Err(_) => return,
                }
            }
        });
        Ok(t)
    }

    /// The address the accept loop listens on, if this endpoint binds.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Open a connection to `peer` at `addr`, announce ourselves with a
    /// hello frame, and register the route.
    ///
    /// # Errors
    ///
    /// Propagates connect/handshake failures.
    pub fn dial<A: ToSocketAddrs>(&mut self, peer: NodeId, addr: A) -> io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // hello: empty payload, registers `self.local` as the return
        // route on the remote side
        stream.write_all(&frame_bytes(self.local, peer, &[]))?;
        let reader = stream.try_clone()?;
        self.shared.routes.lock().unwrap().insert(peer, stream);
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || reader_loop(reader, shared));
        Ok(())
    }

    /// First pause of [`TcpTransport::dial_retry`]'s exponential
    /// backoff.
    const DIAL_BACKOFF_INITIAL: Duration = Duration::from_millis(10);
    /// Backoff ceiling: retries settle at this cadence instead of
    /// hammering a peer that is slow to come up.
    const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(500);

    /// [`TcpTransport::dial`] retried until `deadline` elapses — the
    /// peer's listener may not be up yet when processes start together.
    /// Retries back off exponentially (10 ms doubling to a 500 ms cap),
    /// so a fleet of late joiners doesn't saturate the listener's accept
    /// queue with connect storms; the pause never overshoots the
    /// deadline, and one final attempt always runs at it.
    ///
    /// # Errors
    ///
    /// Returns the last connect failure once the deadline passes.
    pub fn dial_retry<A: ToSocketAddrs + Clone>(
        &mut self,
        peer: NodeId,
        addr: A,
        deadline: Duration,
    ) -> io::Result<()> {
        let start = Instant::now();
        let mut backoff = Self::DIAL_BACKOFF_INITIAL;
        loop {
            match self.dial(peer, addr.clone()) {
                Ok(()) => return Ok(()),
                Err(e) if start.elapsed() < deadline => {
                    let _ = e;
                    // sleep the current backoff, clipped to the time
                    // left so the deadline attempt isn't delayed past it
                    let left = deadline.saturating_sub(start.elapsed());
                    std::thread::sleep(backoff.min(left));
                    backoff = (backoff * 2).min(Self::DIAL_BACKOFF_CAP);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serialize-and-send one opaque payload to `to`, which must be a
    /// registered route (dialed, or learned from an inbound frame).
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds the frame ceiling, no route to `to`
    /// exists, or the socket write fails.
    pub fn send_bytes(&mut self, from: NodeId, to: NodeId, payload: &[u8]) -> io::Result<()> {
        if payload.len() > self.shared.max_frame - HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "payload of {} bytes exceeds the {}-byte frame ceiling",
                    payload.len(),
                    self.shared.max_frame
                ),
            ));
        }
        let mut routes = self.shared.routes.lock().unwrap();
        let Some(stream) = routes.get_mut(&to) else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no route to {to:?}"),
            ));
        };
        stream.write_all(&frame_bytes(from, to, payload))?;
        drop(routes);
        self.bytes_sent += payload.len();
        self.messages_sent += 1;
        self.framing_bytes += FRAME_OVERHEAD;
        self.phase_messages += 1;
        self.phase_bytes += payload.len();
        Ok(())
    }

    /// Pop the next delivery without blocking; `Ok(None)` when the
    /// inbox is empty.
    ///
    /// # Errors
    ///
    /// Surfaces a reader thread's connection failure once the queue has
    /// drained.
    pub fn recv_bytes(&mut self) -> io::Result<Option<TcpDelivery>> {
        let mut inbox = self.shared.inbox.lock().unwrap();
        if let Some((delivery, arrived)) = inbox.queue.pop_front() {
            drop(inbox);
            self.phase_arrivals.push(arrived);
            return Ok(Some(delivery));
        }
        match &inbox.failed {
            Some(msg) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                msg.clone(),
            )),
            None => Ok(None),
        }
    }

    /// Pop the next delivery, parking up to `timeout` for one to arrive.
    ///
    /// # Errors
    ///
    /// Surfaces a reader thread's connection failure once the queue has
    /// drained.
    pub fn recv_bytes_timeout(&mut self, timeout: Duration) -> io::Result<Option<TcpDelivery>> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.shared.inbox.lock().unwrap();
        loop {
            if let Some((delivery, arrived)) = inbox.queue.pop_front() {
                drop(inbox);
                self.phase_arrivals.push(arrived);
                return Ok(Some(delivery));
            }
            if let Some(msg) = &inbox.failed {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    msg.clone(),
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (guard, _) = self
                .shared
                .available
                .wait_timeout(inbox, deadline - now)
                .unwrap();
            inbox = guard;
        }
    }

    /// Cut a phase record named `label`: sends since the previous cut,
    /// plus the arrival stamps of deliveries drained in the window.
    pub fn flush_phase(&mut self, label: &'static str) {
        let end = self.elapsed();
        let mut arrivals = std::mem::take(&mut self.phase_arrivals);
        arrivals.sort_by(f64::total_cmp);
        self.timings.push(PhaseTiming {
            label,
            start: self.phase_mark,
            end,
            messages: self.phase_messages,
            bytes: self.phase_bytes,
            arrivals,
        });
        self.phase_mark = end;
        self.phase_messages = 0;
        self.phase_bytes = 0;
    }

    /// Total serialized payload bytes ever sent.
    pub fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    /// Total payload frames ever sent.
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    /// Total framing overhead sent: [`FRAME_OVERHEAD`] per payload
    /// frame. Hello/route-announcement frames (empty payloads sent by
    /// `dial`) are control traffic and excluded, so this is exactly
    /// `messages_sent() * FRAME_OVERHEAD`.
    pub fn framing_bytes(&self) -> usize {
        self.framing_bytes
    }

    /// Phase records cut so far.
    pub fn timings(&self) -> &[PhaseTiming] {
        &self.timings
    }

    /// Wall-clock seconds since this endpoint was created.
    pub fn elapsed(&self) -> f64 {
        self.shared.epoch.elapsed().as_secs_f64()
    }
}

/// Assemble one wire frame.
fn frame_bytes(from: NodeId, to: NodeId, payload: &[u8]) -> Vec<u8> {
    let len = HEADER_LEN + payload.len();
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    encode_node(&mut buf, from);
    encode_node(&mut buf, to);
    buf.extend_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_on_loopback() -> TcpTransport {
        TcpTransport::bind(NodeId::Server, "127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn dial_send_and_receive_roundtrip() {
        let mut server = server_on_loopback();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::new(NodeId::Client(3));
        client
            .dial_retry(NodeId::Server, addr, Duration::from_secs(5))
            .unwrap();
        client
            .send_bytes(NodeId::Client(3), NodeId::Server, b"masked-model")
            .unwrap();
        let d = server
            .recv_bytes_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("delivery");
        assert_eq!(d.from, NodeId::Client(3));
        assert_eq!(d.to, NodeId::Server);
        assert_eq!(d.payload, b"masked-model");
        assert_eq!(client.bytes_sent(), b"masked-model".len());
        assert_eq!(client.messages_sent(), 1);
    }

    #[test]
    fn learned_route_allows_reply_without_dialing_back() {
        let mut server = server_on_loopback();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::new(NodeId::Client(0));
        client
            .dial_retry(NodeId::Server, addr, Duration::from_secs(5))
            .unwrap();
        client
            .send_bytes(NodeId::Client(0), NodeId::Server, b"ping")
            .unwrap();
        server.recv_bytes_timeout(Duration::from_secs(5)).unwrap();
        // the hello (and the ping) taught the server the return route
        server
            .send_bytes(NodeId::Server, NodeId::Client(0), b"pong")
            .unwrap();
        let d = client
            .recv_bytes_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("reply");
        assert_eq!(d.from, NodeId::Server);
        assert_eq!(d.payload, b"pong");
    }

    #[test]
    fn oversized_send_rejected_locally() {
        let mut server =
            TcpTransport::bind_with_max_frame(NodeId::Server, "127.0.0.1:0", 1024).unwrap();
        let addr = server.local_addr().unwrap();
        let client = TcpTransport::new(NodeId::Client(0));
        // client negotiated nothing: its own ceiling is what stops it
        let mut small_client = TcpTransport::with_shared(NodeId::Client(1), 64);
        small_client
            .dial_retry(NodeId::Server, addr, Duration::from_secs(5))
            .unwrap();
        let err = small_client
            .send_bytes(NodeId::Client(1), NodeId::Server, &[0u8; 128])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = client;
        let _ = server.recv_bytes();
    }

    #[test]
    fn hostile_length_prefix_tears_down_connection_before_allocation() {
        let mut server =
            TcpTransport::bind_with_max_frame(NodeId::Server, "127.0.0.1:0", 4096).unwrap();
        let addr = server.local_addr().unwrap();
        // raw socket claiming a 2 GiB frame
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&(2u32 << 30).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        // the reader rejects the prefix; once the inbox drains the error
        // surfaces to the poller
        let err = loop {
            match server.recv_bytes_timeout(Duration::from_millis(100)) {
                Ok(Some(_)) => continue,
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(err.to_string().contains("outside"), "got: {err}");
    }

    #[test]
    fn dial_retry_connects_when_listener_arrives_late() {
        // reserve a port, free it, and bring the listener up only after
        // the dialer has already burned through its first few backoffs
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let accept = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            let listener = TcpListener::bind(addr).expect("rebind reserved port");
            let _conn = listener.accept().expect("accept late dialer");
        });
        let mut client = TcpTransport::new(NodeId::Client(0));
        let start = Instant::now();
        client
            .dial_retry(NodeId::Server, addr, Duration::from_secs(10))
            .expect("dial succeeds once the listener is up");
        assert!(
            start.elapsed() >= Duration::from_millis(200),
            "connected before the listener could have existed"
        );
        accept.join().unwrap();
    }

    #[test]
    fn dial_retry_deadline_is_not_overshot_by_backoff() {
        // no listener ever comes up: the error must land close to the
        // deadline — the growing backoff is clipped to the time left,
        // never parking past it
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let deadline = Duration::from_millis(300);
        let mut client = TcpTransport::new(NodeId::Client(0));
        let start = Instant::now();
        let err = client
            .dial_retry(NodeId::Server, addr, deadline)
            .unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "got: {err}");
        assert!(elapsed >= deadline, "gave up early at {elapsed:?}");
        assert!(
            elapsed < deadline + TcpTransport::DIAL_BACKOFF_CAP,
            "overshot the deadline: {elapsed:?}"
        );
    }

    #[test]
    fn no_route_is_a_typed_error() {
        let mut t = TcpTransport::new(NodeId::Client(0));
        let err = t
            .send_bytes(NodeId::Client(0), NodeId::Server, b"x")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
    }

    #[test]
    fn phase_accounting_matches_sim_shape() {
        let mut server = server_on_loopback();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::new(NodeId::Client(0));
        client
            .dial_retry(NodeId::Server, addr, Duration::from_secs(5))
            .unwrap();
        client
            .send_bytes(NodeId::Client(0), NodeId::Server, &[7u8; 100])
            .unwrap();
        client
            .send_bytes(NodeId::Client(0), NodeId::Server, &[7u8; 50])
            .unwrap();
        client.flush_phase("upload");
        let t = &client.timings()[0];
        assert_eq!(t.label, "upload");
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 150);
        assert!(t.end >= t.start);
        // receiver side: arrivals land in the receiver's phase record
        for _ in 0..2 {
            server
                .recv_bytes_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("delivery");
        }
        server.flush_phase("collect");
        let r = &server.timings()[0];
        assert_eq!(r.arrivals.len(), 2);
        assert!(r.arrivals[0] <= r.arrivals[1]);
    }
}
