//! The closed-loop HTTP clients: a minimal HTTP/1.1 client over real
//! sockets and the request mix of the edge's steady phase (60 %
//! recommend, 25 % bulk of 4 users, 15 % feedback of 2 events).

use crate::util::Rng;
use evorec_core::UserId;
use evorec_obs::{Clock, MonotonicClock};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side latency limit counted by `goodput_rps` (the serve-p99
/// SLO of the telemetry defaults).
pub const GOODPUT_LIMIT_NS: u64 = 25_000_000;
const SCRAPE_EVERY_NS: u64 = 1_000_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    Recommend,
    Bulk,
    Feedback,
    Metrics,
}

/// One request as the client saw it. `status` 0 is a transport error.
pub struct Outcome {
    pub route: Route,
    pub status: u16,
    pub start: u64,
    pub end: u64,
    /// The edge's own total from `X-Evorec-Timing`.
    pub server_ns: Option<u64>,
    /// Feedback events the edge accepted.
    pub accepted: u64,
}

impl Outcome {
    pub fn latency_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

pub struct Reply {
    pub status: u16,
    pub server_ns: Option<u64>,
    pub body: Vec<u8>,
}

/// Issue one request on a fresh connection (`Connection: close`) and
/// read its `content-length`-framed reply.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: &str,
    body: &str,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: evobench\r\nConnection: close\r\n\
         X-Evorec-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    read_reply(&mut stream)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed mid-reply",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn read_reply(stream: &mut TcpStream) -> io::Result<Reply> {
    let mut buf = Vec::with_capacity(16 * 1024);
    let head_end = loop {
        if let Some(ix) = find(&buf, b"\r\n\r\n") {
            break ix + 4;
        }
        read_more(stream, &mut buf)?;
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let mut length = None;
    let mut server_ns = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-evorec-timing") {
            server_ns = value
                .split(';')
                .find_map(|part| part.strip_prefix("total="))
                .and_then(|t| t.trim_end_matches("ns").parse().ok());
        }
    }
    let length = length.ok_or_else(|| bad("no content-length"))?;
    while buf.len() < head_end + length {
        read_more(stream, &mut buf)?;
    }
    let body = buf[head_end..head_end + length].to_vec();
    Ok(Reply {
        status,
        server_ns,
        body,
    })
}

/// What a client needs to generate its share of the mix.
pub struct ClientSpec<'a> {
    pub addr: SocketAddr,
    pub users: &'a [UserId],
    pub windows: &'a [&'a str],
    pub seed: u64,
    pub clock: &'a MonotonicClock,
}

/// Run client `id` closed-loop until `end` (clock nanos). Client 0
/// also scrapes `GET /metrics` once a second, starting at once.
pub fn run(spec: &ClientSpec<'_>, id: usize, end: u64) -> Vec<Outcome> {
    let mut rng = Rng::new(spec.seed ^ (0xC11E_0000 + id as u64));
    let tenant = format!("client-{id}");
    let mut outcomes = Vec::new();
    let mut next_scrape = spec.clock.now_nanos();
    loop {
        let now = spec.clock.now_nanos();
        if now >= end {
            return outcomes;
        }
        if id == 0 && now >= next_scrape {
            next_scrape += SCRAPE_EVERY_NS;
            outcomes.push(timed(spec.clock, Route::Metrics, || {
                call(spec.addr, "GET", "/metrics", &tenant, "")
            }));
            continue;
        }
        let user = |rng: &mut Rng| spec.users[rng.below(spec.users.len())].0;
        let window = spec.windows[rng.below(spec.windows.len())];
        let roll = rng.below(100);
        let (route, path, body) = if roll < 60 {
            (
                Route::Recommend,
                "/v1/recommend",
                format!(r#"{{"user": {}, "window": "{window}"}}"#, user(&mut rng)),
            )
        } else if roll < 85 {
            let users: Vec<String> = (0..4).map(|_| user(&mut rng).to_string()).collect();
            (
                Route::Bulk,
                "/v1/recommend/bulk",
                format!(
                    r#"{{"window": "{window}", "users": [{}]}}"#,
                    users.join(",")
                ),
            )
        } else {
            let events: Vec<String> = (0..2)
                .map(|_| {
                    format!(
                        r#"{{"user": {}, "measure": "m:load", "category": "counting", "focus": {}, "intensity": 0.5, "reaction": "dwell"}}"#,
                        user(&mut rng),
                        1 + rng.below(4)
                    )
                })
                .collect();
            (
                Route::Feedback,
                "/v1/feedback",
                format!(r#"{{"events": [{}]}}"#, events.join(",")),
            )
        };
        outcomes.push(timed(spec.clock, route, || {
            call(spec.addr, "POST", path, &tenant, &body)
        }));
    }
}

fn timed(
    clock: &MonotonicClock,
    route: Route,
    call: impl FnOnce() -> io::Result<Reply>,
) -> Outcome {
    let start = clock.now_nanos();
    let reply = call();
    let end = clock.now_nanos();
    match reply {
        Ok(reply) => Outcome {
            route,
            status: reply.status,
            start,
            end,
            server_ns: reply.server_ns,
            accepted: if route == Route::Feedback {
                accepted(reply.status, &reply.body)
            } else {
                0
            },
        },
        Err(_) => Outcome {
            route,
            status: 0,
            start,
            end,
            server_ns: None,
            accepted: 0,
        },
    }
}

/// Feedback events the edge accepted: all of a 2xx, the `accepted`
/// count of a partial 429.
fn accepted(status: u16, body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    let parsed = text.split_once("\"accepted\":").and_then(|(_, rest)| {
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    });
    match (status, parsed) {
        (_, Some(n)) => n,
        (200..=299, None) => 2,
        _ => 0,
    }
}
