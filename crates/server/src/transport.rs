//! Transports: the in-process channel hub (portable — what tests, CI
//! and the campaign drive) and the `cfg(unix)` unix-socket listener.
//!
//! Both move exactly the frames [`crate::proto`] defines — the channel
//! hub ships *encoded* bytes through its queues on purpose, so every
//! portable test also exercises the codec the socket path uses. The
//! hub additionally models the wire's failure mode: [`ChannelHub::reset`]
//! drops all in-flight frames, which is what a power failure does to a
//! socket, and is how the campaign makes clients experience a crash.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};

use crate::proto::{
    client_of, decode_request, decode_response, encode_request, encode_response, Request, Response,
};

#[derive(Debug, Default)]
struct HubInner {
    /// Client → server frames, in arrival order.
    requests: Mutex<VecDeque<Vec<u8>>>,
    /// Server → client frames, routed by client id.
    outboxes: Mutex<HashMap<u32, VecDeque<Vec<u8>>>>,
}

/// An in-process "network": clients enqueue encoded requests, the
/// server drains them and posts encoded responses to per-client
/// outboxes.
#[derive(Debug, Clone, Default)]
pub struct ChannelHub {
    inner: Arc<HubInner>,
}

impl ChannelHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        ChannelHub::default()
    }

    /// A client endpoint for `client_id`.
    #[must_use]
    pub fn connect(&self, client_id: u32) -> ChannelConn {
        ChannelConn {
            client_id,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Server side: takes the oldest pending request, if any.
    ///
    /// # Errors
    ///
    /// `InvalidData` if a frame fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    pub fn poll_request(&self) -> io::Result<Option<Request>> {
        let frame = self
            .inner
            .requests
            .lock()
            .expect("hub poisoned")
            .pop_front();
        frame.map(|f| decode_request(&f)).transpose()
    }

    /// Server side: routes a response to its client's outbox.
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    pub fn respond(&self, resp: &Response) {
        let client = client_of(resp.req_id());
        self.inner
            .outboxes
            .lock()
            .expect("hub poisoned")
            .entry(client)
            .or_default()
            .push_back(encode_response(resp).to_vec());
    }

    /// Drops every in-flight frame in both directions — what a power
    /// failure does to the wire. Client and server state are untouched;
    /// clients recover via their timeout/retry loops.
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    pub fn reset(&self) {
        self.inner.requests.lock().expect("hub poisoned").clear();
        self.inner.outboxes.lock().expect("hub poisoned").clear();
    }

    /// Pending unserved requests (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.inner.requests.lock().expect("hub poisoned").len()
    }
}

/// One client's endpoint on a [`ChannelHub`].
#[derive(Debug, Clone)]
pub struct ChannelConn {
    client_id: u32,
    inner: Arc<HubInner>,
}

impl ChannelConn {
    /// Sends one request frame.
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    pub fn send(&self, req: &Request) {
        self.inner
            .requests
            .lock()
            .expect("hub poisoned")
            .push_back(encode_request(req).to_vec());
    }

    /// Receives the next response addressed to this client, if any.
    ///
    /// # Errors
    ///
    /// `InvalidData` if a frame fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if a hub lock is poisoned.
    pub fn try_recv(&self) -> io::Result<Option<Response>> {
        let frame = self
            .inner
            .outboxes
            .lock()
            .expect("hub poisoned")
            .get_mut(&self.client_id)
            .and_then(VecDeque::pop_front);
        frame.map(|f| decode_response(&f)).transpose()
    }
}

/// The unix-socket listener: real frames over `SOCK_STREAM`, served by
/// [`serve_round`](crate::serve_round) — the same round, through the
/// same persistent stack, as every campaign. Connection threads only
/// move frames; one serving thread owns the runtime.
#[cfg(unix)]
pub mod unix {
    use std::collections::HashMap;
    use std::io;
    use std::net::Shutdown;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;

    use pstack_core::{PError, StripedRuntime};

    use crate::proto::Request;
    use crate::proto::{client_of, decode_request, encode_response, read_frame, write_frame};
    use crate::server::{serve_round, ServerCore};

    /// What the connection threads and the handle tell the serving
    /// thread.
    enum Msg {
        Frame(Request, Arc<UnixStream>),
        Hangup(Arc<UnixStream>),
        Stop,
    }

    /// Every open connection while the server serves; `None` once it
    /// has ended, and a connection that finds it so closes at once.
    type Conns = Arc<Mutex<Option<Vec<Arc<UnixStream>>>>>;

    /// Edits the open connections; `false` if the server has ended.
    fn while_serving(conns: &Conns, edit: impl FnOnce(&mut Vec<Arc<UnixStream>>)) -> bool {
        let mut live = conns.lock().expect("conns poisoned");
        live.as_mut().map(edit).is_some()
    }

    /// A listening server; drop or [`UnixServerHandle::stop`] to shut
    /// down.
    pub struct UnixServerHandle {
        path: PathBuf,
        stop: Arc<AtomicBool>,
        inbox: Sender<Msg>,
        accept_thread: Option<JoinHandle<()>>,
        serve_thread: Option<JoinHandle<Result<(), PError>>>,
    }

    impl UnixServerHandle {
        /// The socket path clients connect to.
        #[must_use]
        pub fn path(&self) -> &Path {
            &self.path
        }

        /// Stops accepting and serving and joins both threads.
        ///
        /// # Errors
        ///
        /// What ended the serving thread before this call, if anything
        /// did: a power failure ([`PError::is_crash`] — every region is
        /// down and every connection was closed) or a serving error.
        /// Reported once; a second call is `Ok`.
        ///
        /// # Panics
        ///
        /// Panics if the serving thread panicked.
        pub fn stop(&mut self) -> Result<(), PError> {
            let _ = self.inbox.send(Msg::Stop);
            unblock_accept(&self.stop, &self.path);
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
            let _ = std::fs::remove_file(&self.path);
            let served = self.serve_thread.take().map(JoinHandle::join);
            served.map_or(Ok(()), |joined| joined.expect("serving thread panicked"))
        }
    }

    impl Drop for UnixServerHandle {
        fn drop(&mut self) {
            let _ = self.stop();
        }
    }

    /// Ends the accept loop: the flag, then a throwaway connection to
    /// get `accept()` to look at it.
    fn unblock_accept(stop: &AtomicBool, path: &Path) {
        if !stop.swap(true, Ordering::SeqCst) {
            let _ = UnixStream::connect(path);
        }
    }

    /// A connection's thread: frames in, nothing else. Ends with the
    /// connection (EOF, a torn or corrupt frame) or with the server.
    fn pump_frames(stream: UnixStream, inbox: &Sender<Msg>, conns: &Conns) {
        let stream = Arc::new(stream);
        let mut serving = while_serving(conns, |live| live.push(Arc::clone(&stream)));
        while serving {
            let Ok(Ok(req)) = read_frame(&mut &*stream).map(|frame| decode_request(&frame)) else {
                break;
            };
            serving = inbox.send(Msg::Frame(req, Arc::clone(&stream))).is_ok();
        }
        let _ = stream.shutdown(Shutdown::Both);
        while_serving(conns, |live| live.retain(|s| !Arc::ptr_eq(s, &stream)));
        let _ = inbox.send(Msg::Hangup(stream));
    }

    /// The serving thread: every frame that has arrived is one round's
    /// admissions; a response goes to the connection its client spoke
    /// on last. Rounds go on without new frames while admitted requests
    /// still wait for a window.
    fn serve_rounds(
        core: &ServerCore,
        rt: &StripedRuntime,
        inbox: &Receiver<Msg>,
    ) -> Result<(), PError> {
        let mut routes: HashMap<u32, Arc<UnixStream>> = HashMap::new();
        loop {
            let mut requests = Vec::new();
            let waited = (core.backlog() == 0).then(|| inbox.recv().unwrap_or(Msg::Stop));
            for msg in waited.into_iter().chain(inbox.try_iter()) {
                match msg {
                    Msg::Frame(req, stream) => {
                        routes.insert(client_of(req.req_id), stream);
                        requests.push(req);
                    }
                    Msg::Hangup(stream) => routes.retain(|_, s| !Arc::ptr_eq(s, &stream)),
                    Msg::Stop => return Ok(()),
                }
            }
            for resp in serve_round(core, rt, &requests)? {
                let client = client_of(resp.req_id());
                let sent = routes
                    .get(&client)
                    .map(|stream| write_frame(&mut &**stream, &encode_response(&resp)));
                if matches!(sent, Some(Err(_))) {
                    routes.remove(&client); // hung up: its retry re-routes
                }
            }
        }
    }

    /// Binds `path` and serves `core` over `rt` until the handle stops
    /// or the power fails. Requests on one connection are served in
    /// order; a power failure closes every connection (clients see EOF,
    /// reconnect to the next boot and retransmit) and is reported by
    /// [`UnixServerHandle::stop`].
    ///
    /// # Errors
    ///
    /// Propagated bind errors.
    pub fn serve(
        path: impl AsRef<Path>,
        core: ServerCore,
        rt: StripedRuntime,
    ) -> io::Result<UnixServerHandle> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (inbox, frames) = channel();
        let conns: Conns = Arc::new(Mutex::new(Some(Vec::new())));

        let (serve_stop, serve_path, serve_conns) =
            (Arc::clone(&stop), path.clone(), conns.clone());
        let serve_thread = std::thread::spawn(move || {
            let served = serve_rounds(&core, &rt, &frames);
            // Stopped, or the machine is down: so is every connection.
            let live = serve_conns.lock().expect("conns poisoned").take();
            for stream in live.into_iter().flatten() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            unblock_accept(&serve_stop, &serve_path);
            served
        });
        let (accept_stop, accept_inbox) = (Arc::clone(&stop), inbox.clone());
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { break };
                let (inbox, conns) = (accept_inbox.clone(), conns.clone());
                // Detached: it ends with its connection, which ends no
                // later than the serving thread.
                std::thread::spawn(move || pump_frames(stream, &inbox, &conns));
            }
        });
        Ok(UnixServerHandle {
            path,
            stop,
            inbox,
            accept_thread: Some(accept_thread),
            serve_thread: Some(serve_thread),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{req_id_for, RequestBody};
    use pstack_kv::KvTaskOp;

    #[test]
    fn hub_routes_by_client_and_resets() {
        let hub = ChannelHub::new();
        let a = hub.connect(1);
        let b = hub.connect(2);
        a.send(&Request {
            req_id: req_id_for(1, 1),
            body: RequestBody::Op(KvTaskOp::Get { key: 4 }),
        });
        b.send(&Request {
            req_id: req_id_for(2, 1),
            body: RequestBody::Ack,
        });
        let r1 = hub.poll_request().unwrap().unwrap();
        assert_eq!(r1.req_id, req_id_for(1, 1));
        hub.respond(&Response::Retry { req_id: r1.req_id });
        hub.respond(&Response::AckOk {
            req_id: req_id_for(2, 1),
        });
        // Routing: each client only sees its own responses.
        assert_eq!(
            a.try_recv().unwrap(),
            Some(Response::Retry {
                req_id: req_id_for(1, 1)
            })
        );
        assert_eq!(a.try_recv().unwrap(), None);
        assert_eq!(
            b.try_recv().unwrap(),
            Some(Response::AckOk {
                req_id: req_id_for(2, 1)
            })
        );
        // reset drops the in-flight request from client 2.
        assert_eq!(hub.pending_requests(), 1);
        hub.reset();
        assert_eq!(hub.pending_requests(), 0);
        assert!(hub.poll_request().unwrap().is_none());
    }
}
