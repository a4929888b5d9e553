//! Deterministic fault injection: an in-process TCP chaos proxy.
//!
//! Recovery code is only as trustworthy as the faults it was tested
//! against. [`ChaosProxy`] sits between a cluster router and one node
//! (or any framed peer pair) and injects *scripted* transport faults —
//! severs, per-chunk delays, and byte-counted cuts that land
//! mid-frame — so the self-healing tests and `repro --cluster-chaos`
//! exercise the exact failure points the recovery doctrine promises to
//! survive, reproducibly, with no kernel tricks and no real packet
//! loss.
//!
//! The proxy is two pump threads per connection (client→upstream and
//! upstream→client) over plain blocking sockets with short read
//! timeouts, so a control-plane change (a [`ChaosProxy::sever`], a
//! retarget after a node restart) takes effect within one poll
//! interval. Every injected fault is appended to a timestamped event
//! log ([`ChaosProxy::events`]) that tests assert on and the CI chaos
//! stage archives.

use lbsp_core::locks::{LockRank, TrackedMutex};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often pump and acceptor threads re-check the control plane.
const POLL: Duration = Duration::from_millis(5);

/// Sentinel for an unarmed byte-counted cut.
const UNARMED: u64 = u64::MAX;

/// Control state shared by the acceptor, every pump thread, and the
/// test driving the scenario.
struct Shared {
    /// Where client bytes are forwarded. Retargetable so a test can
    /// restart the upstream node on a fresh port mid-scenario.
    upstream: TrackedMutex<SocketAddr>,
    /// While `true`, live connections are torn down within one poll
    /// interval and new ones are accepted then immediately dropped —
    /// the peer looks crashed, not absent.
    severed: AtomicBool,
    /// Proxy shutdown flag (set on drop / [`ChaosProxy::close`]).
    closed: AtomicBool,
    /// Milliseconds each forwarded chunk is held back, both directions.
    delay_ms: AtomicU64,
    /// Remaining client→upstream bytes before an automatic sever
    /// ([`UNARMED`] = off).
    cut_up: AtomicU64,
    /// Remaining upstream→client bytes before an automatic sever.
    cut_down: AtomicU64,
    /// Timestamped fault log.
    events: TrackedMutex<Vec<String>>,
    /// Epoch for event timestamps.
    start: Instant,
}

impl Shared {
    fn log(&self, msg: &str) {
        let ms = self.start.elapsed().as_millis();
        self.events.lock().push(format!("[{ms:>6} ms] {msg}"));
    }

    /// Consumes up to `got` bytes from one direction's cut budget.
    /// Returns how many of them may be forwarded; arming the sever when
    /// the budget runs dry.
    fn take_budget(&self, counter: &AtomicU64, got: usize, dir: &str) -> usize {
        let cur = counter.load(Ordering::Relaxed);
        if cur == UNARMED {
            return got;
        }
        let allow = usize::try_from(cur).unwrap_or(usize::MAX).min(got);
        let left = cur.saturating_sub(allow as u64);
        counter.store(left, Ordering::Relaxed);
        if left == 0 {
            counter.store(UNARMED, Ordering::Relaxed);
            self.severed.store(true, Ordering::SeqCst);
            self.log(&format!("auto-sever: {dir} byte budget exhausted"));
        }
        allow
    }
}

/// An in-process TCP fault-injection proxy. See the module docs.
pub struct ChaosProxy {
    local: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a proxy on an ephemeral loopback port, forwarding to
    /// `upstream` until told otherwise.
    ///
    /// # Errors
    /// Propagates listener-bind failures.
    pub fn bind(upstream: SocketAddr) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream: TrackedMutex::new(LockRank::ChaosProxy, upstream),
            severed: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            delay_ms: AtomicU64::new(0),
            cut_up: AtomicU64::new(UNARMED),
            cut_down: AtomicU64::new(UNARMED),
            events: TrackedMutex::new(LockRank::ChaosProxy, Vec::new()),
            start: Instant::now(),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ChaosProxy {
            local,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients (the router) should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Cuts every live connection and refuses new ones until
    /// [`ChaosProxy::restore`]. From the client's side the upstream
    /// looks crashed mid-whatever-it-was-doing.
    pub fn sever(&self) {
        self.shared.severed.store(true, Ordering::SeqCst);
        self.shared.log("sever: all connections cut");
    }

    /// Ends a sever: new connections flow to the upstream again (live
    /// connections cut by the sever stay dead — that is the point).
    pub fn restore(&self) {
        self.shared.cut_up.store(UNARMED, Ordering::Relaxed);
        self.shared.cut_down.store(UNARMED, Ordering::Relaxed);
        self.shared.severed.store(false, Ordering::SeqCst);
        self.shared.log("restore: forwarding resumed");
    }

    /// Retargets the upstream (a node restarted on a fresh port).
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.shared.upstream.lock() = upstream;
        self.shared
            .log(&format!("retarget: upstream is now {upstream}"));
    }

    /// Holds every forwarded chunk back by `delay`, both directions —
    /// a slow node, not a dead one.
    pub fn set_delay(&self, delay: Duration) {
        let ms = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX);
        self.shared.delay_ms.store(ms, Ordering::Relaxed);
        self.shared.log(&format!("delay: {ms} ms per chunk"));
    }

    /// Arms an automatic sever after `n` more client→upstream bytes —
    /// lands deterministically mid-request when `n` is smaller than the
    /// next frame.
    pub fn sever_after_upstream_bytes(&self, n: u64) {
        self.shared.cut_up.store(n, Ordering::Relaxed);
        self.shared
            .log(&format!("armed: sever after {n} upstream bytes"));
    }

    /// Arms an automatic sever after `n` more upstream→client bytes —
    /// lands deterministically mid-reply.
    pub fn sever_after_downstream_bytes(&self, n: u64) {
        self.shared.cut_down.store(n, Ordering::Relaxed);
        self.shared
            .log(&format!("armed: sever after {n} downstream bytes"));
    }

    /// The timestamped fault log so far.
    pub fn events(&self) -> Vec<String> {
        self.shared.events.lock().clone()
    }

    /// Shuts the proxy down (idempotent; also runs on drop).
    pub fn close(&mut self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.severed.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.close();
    }
}

/// Accepts connections until closed; while severed, accepted sockets
/// are dropped on the floor so the upstream looks crashed.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.closed.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                if shared.severed.load(Ordering::SeqCst) {
                    drop(client);
                    continue;
                }
                let upstream_addr = *shared.upstream.lock();
                let Ok(upstream) = TcpStream::connect(upstream_addr) else {
                    shared.log(&format!("connect to upstream {upstream_addr} failed"));
                    continue;
                };
                client.set_nodelay(true).ok();
                upstream.set_nodelay(true).ok();
                spawn_pumps(client, upstream, shared);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                thread::sleep(POLL);
            }
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// Starts the two pump threads of one proxied connection. The threads
/// are deliberately detached: each exits within one poll interval of a
/// sever or proxy close, and owns nothing but its two stream handles.
fn spawn_pumps(client: TcpStream, upstream: TcpStream, shared: &Arc<Shared>) {
    let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let up_shared = Arc::clone(shared);
    let down_shared = Arc::clone(shared);
    thread::spawn(move || pump(client, u2, &up_shared, true));
    thread::spawn(move || pump(upstream, c2, &down_shared, false));
}

/// Forwards bytes from `src` to `dst` until EOF, error, sever, or
/// close; applies the scripted delay and byte-budget cuts on the way.
fn pump(mut src: TcpStream, mut dst: TcpStream, shared: &Arc<Shared>, to_upstream: bool) {
    src.set_read_timeout(Some(POLL)).ok();
    let mut buf = vec![0u8; 4096];
    loop {
        if shared.severed.load(Ordering::SeqCst) || shared.closed.load(Ordering::SeqCst) {
            break;
        }
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let delay = shared.delay_ms.load(Ordering::Relaxed);
                if delay > 0 {
                    thread::sleep(Duration::from_millis(delay));
                    // A sever that landed during the hold still cuts
                    // the chunk — the bytes never arrive.
                    if shared.severed.load(Ordering::SeqCst) {
                        break;
                    }
                }
                let (counter, dir) = if to_upstream {
                    (&shared.cut_up, "client->node")
                } else {
                    (&shared.cut_down, "node->client")
                };
                let allow = shared.take_budget(counter, n, dir);
                let Some(chunk) = buf.get(..allow) else {
                    break;
                };
                if !chunk.is_empty() && dst.write_all(chunk).is_err() {
                    break;
                }
                if allow < n {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Tear both halves down so the twin pump exits too: a half-dead
    // proxied connection would be a fault nobody scripted.
    TcpStream::shutdown(&src, Shutdown::Both).ok();
    TcpStream::shutdown(&dst, Shutdown::Both).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server good for one byte-for-byte stream per connection.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn forwards_bytes_both_ways() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(addr).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping through the proxy").unwrap();
        let mut back = [0u8; 22];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping through the proxy");
    }

    #[test]
    fn sever_cuts_live_connections_and_restore_heals() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(addr).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"hi").unwrap();
        let mut back = [0u8; 2];
        c.read_exact(&mut back).unwrap();
        proxy.sever();
        // The cut connection dies within a few poll intervals.
        c.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut tail = [0u8; 1];
        let dead = match c.read(&mut tail) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(dead, "severed connection must stop carrying bytes");
        proxy.restore();
        let mut c2 = TcpStream::connect(proxy.addr()).unwrap();
        c2.write_all(b"back").unwrap();
        let mut again = [0u8; 4];
        c2.read_exact(&mut again).unwrap();
        assert_eq!(&again, b"back");
        let log = proxy.events().join("\n");
        assert!(log.contains("sever"), "events record the sever: {log}");
        assert!(log.contains("restore"), "events record the restore: {log}");
    }

    #[test]
    fn byte_budget_severs_mid_stream() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(addr).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        // Allow exactly 3 upstream bytes, then cut: the echo can return
        // at most 3 bytes before the connection dies.
        proxy.sever_after_upstream_bytes(3);
        c.write_all(b"abcdef").ok();
        c.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert!(got.len() <= 3, "at most the budget crossed: {got:?}");
        assert!(
            proxy.events().iter().any(|e| e.contains("auto-sever")),
            "the cut is logged"
        );
    }

    #[test]
    fn retarget_switches_upstreams() {
        let (a, _ha) = echo_server();
        let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_b = listener_b.local_addr().unwrap();
        let _hb = thread::spawn(move || {
            // Upstream B answers every connection with a fixed banner.
            while let Ok((mut s, _)) = listener_b.accept() {
                let mut one = [0u8; 1];
                if s.read_exact(&mut one).is_ok() {
                    s.write_all(b"B").ok();
                }
            }
        });
        let proxy = ChaosProxy::bind(a).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"x").unwrap();
        let mut echo = [0u8; 1];
        c.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"x", "first upstream echoes");
        proxy.set_upstream(addr_b);
        let mut c2 = TcpStream::connect(proxy.addr()).unwrap();
        c2.write_all(b"x").unwrap();
        let mut banner = [0u8; 1];
        c2.read_exact(&mut banner).unwrap();
        assert_eq!(&banner, b"B", "new connections reach the new upstream");
    }
}
