//! Reads are pure observations: `Stats` and `AsOf` answered mid-replay,
//! while the shards hold pending checkins and open stay windows, leave
//! the stream untouched — resuming afterwards yields exactly the same
//! verdict totals and composition as an uninterrupted run.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_serve::protocol::{read_msg, write_msg, Request, Response, ServerStats};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_stream::dataset_events;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

/// The shared scenario: small enough for a synchronous single-connection
/// replay, big enough to leave pending state at any midpoint.
fn requests() -> (Request, Vec<Request>) {
    let scenario = Scenario::generate(&ScenarioConfig::small(8, 2), 0xD7A1);
    let ds = &scenario.primary;
    let origin = ds.pois.projection().origin();
    let hello = Request::Hello { origin_lat: origin.lat, origin_lon: origin.lon };
    let mut seqs: HashMap<u32, u64> = HashMap::new();
    let events = dataset_events(ds)
        .into_iter()
        .map(|ev| {
            let seq = seqs.entry(ev.user()).or_insert(0);
            let req = match &ev {
                geosocial_stream::StreamEvent::Gps { user, point } => Request::Gps {
                    user: *user,
                    seq: *seq,
                    t: point.t,
                    lat: point.pos.lat,
                    lon: point.pos.lon,
                },
                geosocial_stream::StreamEvent::Checkin { user, checkin } => Request::Checkin {
                    user: *user,
                    seq: *seq,
                    t: checkin.t,
                    poi: checkin.poi,
                    lat: checkin.location.lat,
                    lon: checkin.location.lon,
                },
            };
            *seq += 1;
            req
        })
        .collect::<Vec<_>>();
    assert!(events.len() > 50, "scenario too small to have a meaningful midpoint");
    (hello, events)
}

struct Conn {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Conn { w: BufWriter::new(stream.try_clone().expect("clone")), r: BufReader::new(stream) }
    }

    fn ask(&mut self, req: &Request) -> Response {
        write_msg(&mut self.w, req).expect("write");
        self.w.flush().expect("flush");
        read_msg(&mut self.r).expect("read").expect("response")
    }
}

/// Replay `events`, interrupting with `Stats` and `AsOf` reads after
/// `read_at` events when given; returns (total verdicts, final stats).
fn replay(
    addr: std::net::SocketAddr,
    hello: &Request,
    events: &[Request],
    read_at: Option<usize>,
) -> (usize, ServerStats) {
    let mut conn = Conn::open(addr);
    assert!(matches!(conn.ask(hello), Response::Ok), "hello refused");
    let mut verdicts = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if read_at == Some(i) {
            match conn.ask(&Request::Stats) {
                Response::Stats { stats } => {
                    assert!(stats.users > 0, "mid-replay Stats saw no users");
                    assert!(stats.buffered_state > 0, "no residual state to disturb mid-replay");
                }
                other => panic!("stats: {other:?}"),
            }
            // Every user the replay has reached so far, at the current
            // watermark and at t = ∞.
            let mut users: Vec<u32> = events[..i].iter().map(user_of).collect();
            users.sort_unstable();
            users.dedup();
            let now = match &events[i - 1] {
                Request::Gps { t, .. } | Request::Checkin { t, .. } => *t,
                other => unreachable!("not an event: {other:?}"),
            };
            for user in users {
                let sent = events[..i].iter().filter(|e| user_of(e) == user).count() as u64;
                for t in [now, i64::MAX] {
                    match conn.ask(&Request::AsOf { user, t }) {
                        Response::AsOf { applied, .. } => {
                            assert_eq!(applied, sent, "AsOf applied count for user {user}")
                        }
                        other => panic!("as-of: {other:?}"),
                    }
                }
            }
        }
        match conn.ask(ev) {
            Response::Verdicts { verdicts: v } => verdicts += v.len(),
            other => panic!("ingest {i}: {other:?}"),
        }
    }
    match conn.ask(&Request::Finish) {
        Response::Verdicts { verdicts: v } => verdicts += v.len(),
        other => panic!("finish: {other:?}"),
    }
    let stats = match conn.ask(&Request::Stats) {
        Response::Stats { stats } => stats,
        other => panic!("stats: {other:?}"),
    };
    (verdicts, stats)
}

fn user_of(ev: &Request) -> u32 {
    match ev {
        Request::Gps { user, .. } | Request::Checkin { user, .. } => *user,
        other => unreachable!("not an event: {other:?}"),
    }
}

#[test]
fn mid_replay_reads_then_resume_match_uninterrupted() {
    let (hello, events) = requests();

    let baseline =
        spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0").expect("bind");
    let addr = baseline.addr();
    let (verdicts_a, stats_a) = replay(addr, &hello, &events, None);
    geosocial_serve::loadgen::shutdown_server(addr).expect("shutdown");
    baseline.join().expect("join");

    let read =
        spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0").expect("bind");
    let addr = read.addr();
    let (verdicts_b, stats_b) = replay(addr, &hello, &events, Some(events.len() / 2));
    geosocial_serve::loadgen::shutdown_server(addr).expect("shutdown");
    read.join().expect("join");

    assert!(verdicts_a > 0, "replay finalized no verdicts at all");
    assert_eq!(verdicts_a, verdicts_b, "mid-replay reads changed the verdict total");
    assert_eq!(stats_a.verdicts, stats_b.verdicts);
    assert_eq!(
        stats_a.composition, stats_b.composition,
        "mid-replay reads changed the composition"
    );
}
