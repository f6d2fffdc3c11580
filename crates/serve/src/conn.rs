//! One line-JSON connection: the framing every TCP exchange in this crate
//! goes through — the session server and its clients, and the shard
//! coordinator and its workers.
//!
//! Two rules make a lockstep request/reply protocol run at wire speed
//! instead of at the delayed-ACK timer:
//!
//! * `TCP_NODELAY` is set on every connection. Each exchange is one small
//!   message waiting on one small reply, exactly the pattern Nagle's
//!   algorithm penalizes: with it on, a message written in two pieces has
//!   its second piece held until the peer's delayed ACK (~40 ms) arrives.
//! * Every message is rendered into a reused buffer, newline included, and
//!   leaves in one `write_all` — one segment on the wire, never a body and
//!   a trailing `\n` as two.
//!
//! Reads are capped ([`LineConn::read_line`]): a line longer than the cap
//! is reported instead of buffered, so a hostile peer cannot balloon the
//! reader's memory.

use std::fmt::Display;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The outcome of one capped, timeout-aware line read.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (newline stripped), within the cap.
    Line(String),
    /// The line exceeded the cap; the tail is unread.
    TooLong,
    /// The peer closed the connection.
    Eof,
    /// The read timeout elapsed before a full line arrived.
    TimedOut,
}

/// A line-JSON connection over one `TCP_NODELAY` socket (see the module
/// docs for the wire discipline).
#[derive(Debug)]
pub struct LineConn {
    /// The socket, behind a read buffer; writes go straight to the socket
    /// underneath ([`BufReader`] buffers reads only).
    reader: BufReader<TcpStream>,
    /// Reused render buffer: one message plus its newline.
    out: Vec<u8>,
    /// Reused accumulation buffer for lines split across reads.
    line: Vec<u8>,
}

impl LineConn {
    /// Wrap an accepted or connected socket, turning Nagle off.
    pub fn new(stream: TcpStream) -> io::Result<LineConn> {
        stream.set_nodelay(true)?;
        Ok(LineConn {
            reader: BufReader::new(stream),
            out: Vec::new(),
            line: Vec::new(),
        })
    }

    /// Connect to `addr` and wrap the socket.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<LineConn> {
        LineConn::new(TcpStream::connect(addr)?)
    }

    /// Send one message: render it and its newline into the reused buffer
    /// and hand the whole line to the socket in one `write_all`.
    pub fn send(&mut self, msg: &dyn Display) -> io::Result<()> {
        self.out.clear();
        writeln!(self.out, "{msg}")?;
        self.reader.get_mut().write_all(&self.out)
    }

    /// Read one `\n`-terminated line of at most `max` bytes, buffering only
    /// up to the cap — the defense [`BufRead::read_line`] cannot provide,
    /// since it buffers the whole line before the caller can measure it.
    /// A final unterminated line before EOF is still returned.
    pub fn read_line(&mut self, max: usize) -> io::Result<LineRead> {
        let buf = &mut self.line;
        buf.clear();
        loop {
            let available = match self.reader.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineRead::TimedOut)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if buf.is_empty() {
                    return Ok(LineRead::Eof);
                }
                return Ok(LineRead::Line(String::from_utf8_lossy(buf).into_owned()));
            }
            let (take, done) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => (i, true),
                None => (available.len(), false),
            };
            if buf.len() + take > max {
                return Ok(LineRead::TooLong);
            }
            buf.extend_from_slice(&available[..take]);
            self.reader.consume(take + usize::from(done));
            if done {
                return Ok(LineRead::Line(String::from_utf8_lossy(buf).into_owned()));
            }
        }
    }

    /// Read the peer's next line, uncapped: the client side of a lockstep
    /// exchange, where the peer is the trusted server. End of stream and
    /// a timeout are errors here.
    pub fn recv(&mut self) -> io::Result<String> {
        match self.read_line(usize::MAX)? {
            LineRead::Line(line) => Ok(line),
            LineRead::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
            LineRead::TimedOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a reply",
            )),
            LineRead::TooLong => unreachable!("no line exceeds usize::MAX bytes"),
        }
    }

    /// One strict request/reply exchange: [`LineConn::send`] then
    /// [`LineConn::recv`].
    pub fn round_trip(&mut self, msg: &dyn Display) -> io::Result<String> {
        self.send(msg)?;
        self.recv()
    }

    /// Discard input up to the next newline (or EOF/error), reading at most
    /// `limit` bytes. Closing a socket with unread bytes in its receive
    /// buffer makes TCP reset the connection, destroying a queued error
    /// reply before the peer reads it; draining first lets it arrive,
    /// without letting a hostile stream pin the thread.
    pub fn drain_line(&mut self, limit: usize) {
        let mut discarded = 0;
        while discarded < limit {
            let Ok(available) = self.reader.fill_buf() else {
                return;
            };
            if available.is_empty() {
                return;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.reader.consume(i + 1);
                    return;
                }
                None => {
                    let n = available.len();
                    self.reader.consume(n);
                    discarded += n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected pair over loopback: (client side, server side).
    fn pair() -> (LineConn, LineConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = LineConn::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, LineConn::new(server).unwrap())
    }

    #[test]
    fn both_ends_turn_nagle_off() {
        let (client, server) = pair();
        assert!(client.reader.get_ref().nodelay().unwrap());
        assert!(server.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn lines_round_trip_and_the_cap_holds() {
        let (mut client, mut server) = pair();
        client.send(&"hello").unwrap();
        client.send(&format_args!("{}", "x".repeat(100))).unwrap();
        client.send(&"tail").unwrap();
        assert!(matches!(server.read_line(64).unwrap(), LineRead::Line(l) if l == "hello"));
        assert!(matches!(server.read_line(64).unwrap(), LineRead::TooLong));
        server.drain_line(1 << 16);
        assert!(matches!(server.read_line(64).unwrap(), LineRead::Line(l) if l == "tail"));
        drop(client);
        assert!(matches!(server.read_line(64).unwrap(), LineRead::Eof));
    }

    #[test]
    fn recv_reports_a_closed_peer_as_an_error() {
        let (mut client, server) = pair();
        drop(server);
        let e = client.round_trip(&"ping").unwrap_err();
        assert!(
            matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            ),
            "{e}"
        );
    }
}
