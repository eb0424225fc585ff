//! Hardened socket framing shared by the line-protocol and HTTP
//! transports: a poll-based line reader that can tell a *stalled* peer
//! from an *idle* one, plus [`low_latency`], the socket setup every
//! daemon and client connection goes through.
//!
//! `BufRead::read_line` on a plain socket cannot defend against a
//! slowloris peer: it loops over `fill_buf` internally, and a client
//! dripping one byte per second makes steady progress, so a per-read
//! socket timeout never fires and the connection is held open forever.
//! [`LineReader`] instead sets a short poll interval as the socket
//! read timeout and surfaces every tick to the caller as a
//! [`Poll::Pending`] carrying the **age of the partial frame** — time
//! since the first byte of the still-incomplete line arrived. The
//! caller owns policy: a partial frame older than the read timeout is
//! a slow-drip eviction, an empty buffer past the idle timeout is a
//! keep-alive eviction, and a connection with requests in flight is
//! never evicted at all.
//!
//! Frames are bounded ([`Poll::Oversized`]) so an attacker cannot buy
//! unbounded memory with one endless line, and EOF reports whether it
//! tore a frame mid-assembly ([`Poll::Eof`]) — the counter behind the
//! chaos smoke's truncate-fault assertions.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How often a [`LineReader`] wakes to re-examine timeout policy when
/// no bytes are arriving (upper bound; see [`poll_interval`]).
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Sets `TCP_NODELAY` on a freshly accepted or dialed stream. Both
/// protocols are request/response with small messages (an event line,
/// a pipelined request, a short HTTP reply): under Nagle's algorithm
/// such a write waits for the ACK of the previous one, which the peer
/// delays by up to tens of milliseconds. Every write here is already a
/// whole message, so there is nothing for Nagle to coalesce.
pub fn low_latency(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One observation from [`LineReader::poll_line`].
#[derive(Debug)]
pub enum Poll {
    /// A complete line, terminator stripped (`\n`, and `\r\n`).
    Frame(Vec<u8>),
    /// No complete line yet. `frame_age` is `Some` with the age of the
    /// partially-assembled frame when bytes of an incomplete line are
    /// buffered, `None` when the connection is simply idle.
    Pending {
        /// Age of the incomplete frame, measured from its first byte.
        frame_age: Option<Duration>,
    },
    /// The current frame exceeded the configured byte limit without a
    /// terminator. The connection should be refused and closed.
    Oversized {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The peer closed the connection. `torn` is true when buffered
    /// bytes of an unterminated frame were lost with it.
    Eof {
        /// Whether EOF cut a frame mid-assembly.
        torn: bool,
    },
}

/// A bounded, timeout-aware line framer over one [`TcpStream`].
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    max_frame: usize,
    frame_started: Option<Instant>,
}

/// The poll tick for a connection with the given read/idle timeouts:
/// short enough to observe the tightest configured timeout promptly,
/// never longer than [`POLL_INTERVAL`]. `None` when both timeouts are
/// disabled — the caller can then block indefinitely.
pub fn poll_interval(read: Option<Duration>, idle: Option<Duration>) -> Option<Duration> {
    let tightest = match (read, idle) {
        (Some(r), Some(i)) => r.min(i),
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => return None,
    };
    Some((tightest / 4).clamp(Duration::from_millis(10), POLL_INTERVAL))
}

impl LineReader {
    /// Wraps `stream`, polling at `poll` (or blocking when `None`).
    /// Frames longer than `max_frame` bytes are refused.
    pub fn new(
        stream: TcpStream,
        poll: Option<Duration>,
        max_frame: usize,
    ) -> io::Result<LineReader> {
        stream.set_read_timeout(poll)?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            max_frame: max_frame.max(1),
            frame_started: None,
        })
    }

    /// Extracts the next buffered line, if a terminator has arrived.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let newline = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scanned + i);
        let Some(newline) = newline else {
            self.scanned = self.buf.len();
            return None;
        };
        let mut line: Vec<u8> = self.buf.drain(..=newline).collect();
        line.pop(); // the \n
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.scanned = 0;
        // Whatever remains arrived in the same packet; its assembly
        // clock starts now.
        self.frame_started = (!self.buf.is_empty()).then(Instant::now);
        Some(line)
    }

    fn frame_age(&self) -> Option<Duration> {
        self.frame_started.map(|started| started.elapsed())
    }

    /// The cap, applied to *complete* frames too — a huge line that
    /// arrives with its terminator in one packet is just as refusable
    /// as one assembled byte by byte.
    fn frame_or_refuse(&self, line: Vec<u8>) -> Poll {
        if line.len() > self.max_frame {
            Poll::Oversized {
                limit: self.max_frame,
            }
        } else {
            Poll::Frame(line)
        }
    }

    /// One poll step: a complete frame, a pending observation, an
    /// oversized refusal, or EOF. `Err` is a genuine socket error.
    pub fn poll_line(&mut self) -> io::Result<Poll> {
        if let Some(line) = self.take_line() {
            return Ok(self.frame_or_refuse(line));
        }
        if self.buf.len() > self.max_frame {
            return Ok(Poll::Oversized {
                limit: self.max_frame,
            });
        }
        let mut chunk = [0u8; 8 << 10];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Poll::Eof {
                torn: !self.buf.is_empty(),
            }),
            Ok(n) => {
                if self.buf.is_empty() {
                    self.frame_started = Some(Instant::now());
                }
                self.buf.extend_from_slice(&chunk[..n]);
                if let Some(line) = self.take_line() {
                    return Ok(self.frame_or_refuse(line));
                }
                if self.buf.len() > self.max_frame {
                    return Ok(Poll::Oversized {
                        limit: self.max_frame,
                    });
                }
                Ok(Poll::Pending {
                    frame_age: self.frame_age(),
                })
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Poll::Pending {
                    frame_age: self.frame_age(),
                })
            }
            Err(error) => Err(error),
        }
    }

    /// Reads exactly `len` raw bytes (an HTTP body — not line framed,
    /// not subject to the frame cap), consuming buffered bytes first.
    /// `deadline` bounds the whole read; `None` waits indefinitely.
    pub fn read_exact_timed(
        &mut self,
        len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, BodyError> {
        let mut body = Vec::with_capacity(len.min(1 << 20));
        let take = len.min(self.buf.len());
        body.extend(self.buf.drain(..take));
        self.scanned = 0;
        self.frame_started = (!self.buf.is_empty()).then(Instant::now);
        let mut chunk = [0u8; 8 << 10];
        while body.len() < len {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BodyError::TimedOut);
            }
            let want = (len - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(BodyError::Eof),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(error) => return Err(BodyError::Io(error)),
            }
        }
        Ok(body)
    }

    /// Lingering close: reads and discards until EOF or `limit`
    /// elapses, then half-closes the write side. Closing a socket with
    /// unread bytes in its receive buffer sends a reset, which can
    /// destroy a refusal already in flight to the peer — draining first
    /// lets the 4xx arrive, and the FIN sent before the close puts EOF
    /// ahead of any reset a peer still sending past the drain provokes.
    pub fn drain_for(&mut self, limit: Duration) {
        // A reader polling blocking-forever (no timeouts configured)
        // must still honor the drain deadline.
        let _ = self.stream.set_read_timeout(Some(POLL_INTERVAL));
        let deadline = Instant::now() + limit;
        let mut chunk = [0u8; 8 << 10];
        while Instant::now() < deadline {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(_) => {}
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Why [`LineReader::read_exact_timed`] could not deliver the body.
#[derive(Debug)]
pub enum BodyError {
    /// The peer closed before the declared length arrived.
    Eof,
    /// The deadline passed with the body still incomplete.
    TimedOut,
    /// A genuine socket error.
    Io(io::Error),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A connected socket pair over loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn reader(server: TcpStream, max: usize) -> LineReader {
        LineReader::new(server, Some(Duration::from_millis(20)), max).unwrap()
    }

    #[test]
    fn frames_split_on_newlines_and_strip_crlf() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"alpha\nbeta\r\ngam").unwrap();
        client.flush().unwrap();
        let mut frames = Vec::new();
        for _ in 0..20 {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => frames.push(f),
                Poll::Pending { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(frames, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // The partial third frame ages while incomplete.
        std::thread::sleep(Duration::from_millis(30));
        match reader.poll_line().unwrap() {
            Poll::Pending {
                frame_age: Some(age),
            } => {
                assert!(age >= Duration::from_millis(20), "{age:?}")
            }
            other => panic!("expected aged pending, got {other:?}"),
        }
        client.write_all(b"ma\n").unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f, b"gamma");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn idle_pending_reports_no_frame_age() {
        let (_client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        match reader.poll_line().unwrap() {
            Poll::Pending { frame_age: None } => {}
            other => panic!("expected idle pending, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_refused_not_buffered_forever() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 16);
        client.write_all(&[b'x'; 64]).unwrap();
        client.flush().unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Oversized { limit } => {
                    assert_eq!(limit, 16);
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn eof_reports_torn_frames() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 1 << 20);
        client.write_all(b"cut mid-fra").unwrap();
        drop(client);
        loop {
            match reader.poll_line().unwrap() {
                Poll::Eof { torn } => {
                    assert!(torn, "partial frame lost to EOF must report torn");
                    break;
                }
                Poll::Pending { .. } | Poll::Frame(_) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }

        let (client, server) = pair();
        let mut clean = self::reader(server, 1 << 20);
        drop(client);
        loop {
            match clean.poll_line().unwrap() {
                Poll::Eof { torn } => {
                    assert!(!torn, "clean close is not torn");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bodies_read_exactly_and_time_out() {
        let (mut client, server) = pair();
        let mut reader = reader(server, 64);
        client.write_all(b"HEAD\n0123456789").unwrap();
        client.flush().unwrap();
        loop {
            match reader.poll_line().unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f, b"HEAD");
                    break;
                }
                Poll::Pending { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        let body = reader.read_exact_timed(10, None).unwrap();
        assert_eq!(body, b"0123456789");

        // A body that never completes hits the deadline.
        let deadline = Some(Instant::now() + Duration::from_millis(60));
        match reader.read_exact_timed(5, deadline) {
            Err(BodyError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }

        // A body cut by EOF is reported as such.
        drop(client);
        match reader.read_exact_timed(5, None) {
            Err(BodyError::Eof) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn poll_interval_tracks_the_tightest_timeout() {
        assert_eq!(poll_interval(None, None), None);
        assert_eq!(
            poll_interval(Some(Duration::from_secs(10)), None),
            Some(POLL_INTERVAL)
        );
        assert_eq!(
            poll_interval(
                Some(Duration::from_millis(200)),
                Some(Duration::from_secs(60))
            ),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            poll_interval(Some(Duration::from_millis(8)), None),
            Some(Duration::from_millis(10)),
            "poll never spins tighter than 10ms"
        );
    }

    #[test]
    fn low_latency_sets_nodelay_on_both_ends() {
        let (client, server) = pair();
        assert!(!server.nodelay().unwrap(), "the kernel default is Nagle");
        let (client, server) = (low_latency(client).unwrap(), low_latency(server).unwrap());
        assert!(client.nodelay().unwrap());
        assert!(server.nodelay().unwrap());
    }
}
