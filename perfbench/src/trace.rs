//! Spans recorded around the benchmark's calls into each layer (name,
//! start, end, parent, transaction id), kept in memory per thread and
//! written once at the end as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open directly.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub txn: Option<u64>,
}

/// One thread's spans. Disabled recorders keep nothing, so the
/// tracing-off runs pay one branch per call site.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
}

/// The id a disabled recorder hands out.
pub const NO_SPAN: usize = usize::MAX;

impl Spans {
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Spans {
        Spans {
            origin,
            tid,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Start a span whose end is not known yet (a parent); see `close`.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        txn: Option<u64>,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns: ns,
            end_ns: ns,
            parent: parent.filter(|&p| p != NO_SPAN),
            txn,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        if id != NO_SPAN {
            let ns = self.ns(end);
            self.spans[id].end_ns = ns;
        }
    }

    /// Record a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        txn: Option<u64>,
    ) -> usize {
        let id = self.open(name, start, parent, txn);
        self.close(id, end);
        id
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Write every thread's spans as one Chrome trace-event file.
pub fn write_chrome(path: &Path, threads: &[&Spans]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for t in threads {
        for (i, s) in t.spans.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":\"{}.{}\"",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                t.tid,
                t.tid,
                i
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":\"{}.{}\"", t.tid, p)?;
            }
            if let Some(txn) = s.txn {
                write!(out, ",\"txn\":{txn}")?;
            }
            out.write_all(b"}}")?;
        }
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorders_keep_nothing() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0, 1, false);
        let p = s.open("txn", t0, None, Some(1));
        assert_eq!(p, NO_SPAN);
        s.span("stage", t0, t0, Some(p), Some(1));
        s.close(p, t0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0, 2, true);
        let p = s.open("txn", t0 + Duration::from_micros(5), None, Some(9));
        let c = s.span(
            "stage",
            t0 + Duration::from_micros(6),
            t0 + Duration::from_micros(8),
            Some(p),
            Some(9),
        );
        s.close(p, t0 + Duration::from_micros(10));
        assert_eq!(s.spans[c].parent, Some(p));
        assert_eq!(s.spans[p].end_ns - s.spans[p].start_ns, 5_000);
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.json", std::process::id()));
        write_chrome(&path, &[&s]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"stage\""), "{text}");
        assert!(text.contains("\"ts\":6.000,\"dur\":2.000"), "{text}");
        assert!(text.contains("\"parent\":\"2.0\",\"txn\":9"), "{text}");
        assert!(text.trim_end().ends_with("}}]}"), "{text}");
    }
}
