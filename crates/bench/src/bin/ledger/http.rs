//! A plain HTTP/1.1 client, one connection at a time.
//!
//! It frames a reply by `Content-Length` and keeps the connection for the
//! next request whenever the reply carries no `Connection: close`. The
//! server decides which of the two it pays for; the client is the same on
//! both sides of such a change.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request and its reply, with the times a caller saw.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// Time to connect, when this exchange opened the connection.
    pub connect: Option<Duration>,
    /// Exchange start to the first byte of the reply.
    pub first_byte: Duration,
    /// When the last byte of the reply arrived.
    pub done: Instant,
}

pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
    /// Exchanges completed so far.
    pub exchanges: u64,
}

/// Renders a request head as the load generator sends it.
pub fn request_bytes(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: ledger\r\n\r\n").into_bytes()
}

fn invalid(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_owned())
}

/// What the head of a reply says about how to read the rest.
#[derive(Debug, PartialEq, Eq)]
struct ReplyHead {
    status: u16,
    content_length: Option<usize>,
    close: bool,
}

fn parse_reply_head(head: &[u8]) -> io::Result<ReplyHead> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("reply head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("no status code in reply"))?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(ReplyHead {
        status,
        content_length,
        close,
    })
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            conn: None,
            buf: Vec::with_capacity(4096),
            connects: 0,
            exchanges: 0,
        }
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        self.connects += 1;
        Ok(stream)
    }

    /// Sends `request` and reads one reply. A kept connection the server
    /// has dropped in the meantime is retried once on a fresh one.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let start = Instant::now();
        if let Some(mut stream) = self.conn.take() {
            match self.exchange_on(&mut stream, request, start, None) {
                Ok((exchange, keep)) => {
                    self.conn = keep.then_some(stream);
                    return Ok(exchange);
                }
                // Nothing of a reply arrived: the server closed an idle
                // connection. Anything else is a failed exchange.
                Err(e)
                    if self.buf.is_empty()
                        && !matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => return Err(e),
            }
        }
        let mut stream = self.connect()?;
        let connected = start.elapsed();
        let (exchange, keep) = self.exchange_on(&mut stream, request, start, Some(connected))?;
        self.conn = keep.then_some(stream);
        Ok(exchange)
    }

    fn exchange_on(
        &mut self,
        stream: &mut TcpStream,
        request: &[u8],
        start: Instant,
        connect: Option<Duration>,
    ) -> io::Result<(Exchange, bool)> {
        self.buf.clear();
        stream.write_all(request)?;
        let mut chunk = [0u8; 4096];
        let mut first_byte = None;
        // Head: everything up to the blank line.
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(|| start.elapsed());
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = parse_reply_head(&self.buf[..head_end])?;
        // Body: by Content-Length, or to the end of the stream without one.
        match head.content_length {
            Some(length) => {
                while self.buf.len() < head_end + length {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                if self.buf.len() > head_end + length {
                    return Err(invalid("reply longer than its Content-Length"));
                }
            }
            None => loop {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                self.buf.extend_from_slice(&chunk[..n]);
            },
        }
        let done = Instant::now();
        self.exchanges += 1;
        let keep = !head.close && head.content_length.is_some();
        Ok((
            Exchange {
                status: head.status,
                body: self.buf[head_end..].to_vec(),
                connect,
                first_byte: first_byte.unwrap_or_default(),
                done,
            },
            keep,
        ))
    }

    pub fn get(&mut self, path: &str) -> io::Result<Exchange> {
        self.exchange(&request_bytes("GET", path))
    }

    pub fn post(&mut self, path: &str) -> io::Result<Exchange> {
        self.exchange(&request_bytes("POST", path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reads one request head from `stream`; `false` at end of stream.
    fn read_request(stream: &mut TcpStream) -> bool {
        let mut seen = Vec::new();
        let mut byte = [0u8; 1];
        while !seen.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(1) => seen.push(byte[0]),
                _ => return false,
            }
        }
        true
    }

    /// Serves `connections` connections, answering every request on each
    /// with `reply(n)` for the n-th request overall, and returns how many
    /// requests each connection carried.
    fn serve(
        listener: TcpListener,
        connections: usize,
        close_after_reply: bool,
        reply: fn(usize) -> Vec<u8>,
    ) -> std::thread::JoinHandle<Vec<usize>> {
        std::thread::spawn(move || {
            let mut served = 0;
            let mut per_connection = Vec::new();
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut here = 0;
                while read_request(&mut stream) {
                    stream.write_all(&reply(served)).expect("write reply");
                    served += 1;
                    here += 1;
                    if close_after_reply {
                        break;
                    }
                }
                per_connection.push(here);
            }
            per_connection
        })
    }

    fn local_listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    #[test]
    fn connection_close_replies_pay_a_connect_each() {
        let (listener, addr) = local_listener();
        let server = serve(listener, 3, true, |n| {
            format!("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n#{n}")
                .into_bytes()
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        for n in 0..3 {
            let reply = client.get("/x").expect("exchange");
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, format!("#{n}").into_bytes());
            assert!(reply.connect.is_some());
        }
        assert_eq!((client.connects, client.exchanges), (3, 3));
        drop(client);
        assert_eq!(server.join().expect("server"), vec![1, 1, 1]);
    }

    #[test]
    fn reusable_replies_share_one_connection() {
        let (listener, addr) = local_listener();
        let server = serve(listener, 1, false, |n| {
            // Two replies of different lengths and a 404, split framing
            // kept honest by Content-Length alone.
            let body = "y".repeat(n * 3000 + 1);
            let status = if n == 2 { "404 Not Found" } else { "200 OK" };
            format!(
                "HTTP/1.1 {status}\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        for n in 0..3 {
            let reply = client.post("/x").expect("exchange");
            assert_eq!(reply.status, if n == 2 { 404 } else { 200 });
            assert_eq!(reply.body.len(), n * 3000 + 1);
            assert_eq!(reply.connect.is_some(), n == 0);
        }
        assert_eq!((client.connects, client.exchanges), (1, 3));
        drop(client);
        assert_eq!(server.join().expect("server"), vec![3]);
    }

    #[test]
    fn a_dropped_kept_connection_is_retried_once() {
        let (listener, addr) = local_listener();
        // The server answers one request per connection but never says
        // `Connection: close`: the second request finds the kept
        // connection gone and has to reconnect.
        let server = serve(listener, 2, true, |_| {
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec()
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        assert_eq!(client.get("/a").expect("first").body, b"ok");
        assert_eq!(client.get("/b").expect("second").body, b"ok");
        assert_eq!((client.connects, client.exchanges), (2, 2));
        drop(client);
        assert_eq!(server.join().expect("server"), vec![1, 1]);
    }

    #[test]
    fn reply_heads_parse_or_fail_cleanly() {
        let head = parse_reply_head(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 7\r\nConnection: Close\r\n\r\n",
        )
        .expect("head");
        assert_eq!(
            head,
            ReplyHead {
                status: 503,
                content_length: Some(7),
                close: true
            }
        );
        assert!(parse_reply_head(b"garbage\r\n\r\n").is_err());
        assert!(parse_reply_head(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }
}
