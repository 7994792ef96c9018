//! A small HTTP/1.1 client for the load generator. It never forces
//! `Connection: close`: the socket is reused for as long as the server
//! leaves it open and reconnected only when the server closes it, and
//! every connect is counted (`serve.connects_per_req`). A server that
//! starts keeping connections alive is therefore measured as such
//! without editing the benchmark.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection slot.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// TCP connects made so far.
    pub connects: u64,
}

/// One completed exchange.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Wall time from the request's first byte (connect included) to
    /// the last response byte.
    pub latency_s: f64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        self.connects += 1;
        let _ = s.set_nodelay(true);
        abort_on_close(&s);
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        Ok(s)
    }

    /// Sends one request and reads the whole response. A reused socket
    /// the server closed while idle is reconnected once, transparently.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let started = Instant::now();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        loop {
            let reused = self.stream.is_some();
            let mut s = match self.stream.take() {
                Some(s) => s,
                None => self.connect()?,
            };
            let sent = s
                .write_all(head.as_bytes())
                .and_then(|()| s.write_all(body.as_bytes()));
            let res = match sent {
                Ok(()) => read_response(&mut s),
                Err(e) => Err(ReadError::Early(e.to_string())),
            };
            match res {
                Ok((status, text, keep)) => {
                    if keep {
                        self.stream = Some(s);
                    }
                    return Ok(Reply {
                        status,
                        body: text,
                        latency_s: started.elapsed().as_secs_f64(),
                    });
                }
                // A kept-alive socket the server already closed fails
                // before any response byte: reconnect and resend.
                Err(ReadError::Early(_)) if reused => continue,
                Err(ReadError::Early(e) | ReadError::Late(e)) => return Err(e),
            }
        }
    }
}

/// `SO_LINGER` with a zero timeout: closing the socket (only ever done
/// after a complete response) resets the connection instead of leaving
/// it in `TIME_WAIT`. At thousands of connections per second, `TIME_WAIT`
/// entries would otherwise fill the loopback port space, slowing every
/// later connect and making a run's latency depend on the runs before it.
fn abort_on_close(s: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `fd` is an open socket owned by `s` for the whole call,
    // and `linger` is a live `struct linger` (two C ints on Linux)
    // whose exact size is passed as the length.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    debug_assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

enum ReadError {
    /// Failed before any response byte arrived.
    Early(String),
    Late(String),
}

/// Reads one response: `(status, body, connection stays open)`.
fn read_response(s: &mut TcpStream) -> Result<(u16, String, bool), ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(8192);
    let mut chunk = [0u8; 16384];
    let header_end = loop {
        if let Some(p) = find(&buf, b"\r\n\r\n") {
            break p + 4;
        }
        let n = s.read(&mut chunk).map_err(|e| {
            if buf.is_empty() {
                ReadError::Early(format!("read: {e}"))
            } else {
                ReadError::Late(format!("read: {e}"))
            }
        })?;
        if n == 0 {
            return Err(if buf.is_empty() {
                ReadError::Early("connection closed before a response".into())
            } else {
                ReadError::Late("connection closed inside the response head".into())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| ReadError::Late(format!("bad status line '{status_line}'")))?;
    let mut length: Option<usize> = None;
    let mut keep = status_line.starts_with("HTTP/1.1");
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let v = v.trim();
        if k.eq_ignore_ascii_case("content-length") {
            length = v.parse().ok();
        } else if k.eq_ignore_ascii_case("connection") {
            keep = !v.eq_ignore_ascii_case("close");
        }
    }
    let mut body = buf[header_end..].to_vec();
    match length {
        Some(len) => {
            while body.len() < len {
                let n = s
                    .read(&mut chunk)
                    .map_err(|e| ReadError::Late(format!("read body: {e}")))?;
                if n == 0 {
                    return Err(ReadError::Late("connection closed inside the body".into()));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            // No length: the body runs to connection close.
            s.read_to_end(&mut body)
                .map_err(|e| ReadError::Late(format!("read body: {e}")))?;
            keep = false;
        }
    }
    let text = String::from_utf8(body).map_err(|_| ReadError::Late("body is not UTF-8".into()))?;
    Ok((status, text, keep))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
