//! Seeded workload inputs: the scenario population, its event stream cut
//! into pre-encoded frames, and the historical reads to issue.
//!
//! Frames follow the load generator's single-connection layout: each
//! user's consecutive GPS fixes batch into `GpsRun` frames of up to
//! `run_len` fixes, cut by that user's own checkins, and frames are emitted
//! in global event-time order. Frames are encoded once, before anything is
//! timed, so the client's encode cost never throttles the server; the
//! traced run times the encoder on its own.
//!
//! The load generator's own frame cutter is private to
//! `geosocial_serve::loadgen`, so [`for_each_frame`] repeats it; the test
//! at the end of this file checks that both put the same bytes on the wire.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;

use geosocial_scenario::PopulationConfig;
use geosocial_serve::protocol::{Request, WireFix};
use geosocial_serve::wire;
use geosocial_stream::StreamEvent;
use geosocial_trace::{Dataset, Timestamp, UserId, DAY, HOUR};

use crate::spec::{Reads, Workload, READ_DAYS};

/// Bookkeeping for one pre-encoded frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Byte offset of the frame (length prefix included) in [`Inputs::bytes`].
    pub offset: usize,
    /// Frame length in bytes.
    pub len: usize,
    /// The user whose events the frame carries.
    pub user: UserId,
    /// GPS fixes in the frame.
    pub gps: u32,
    /// Checkins in the frame.
    pub checkins: u32,
}

impl FrameMeta {
    /// Events the frame carries.
    pub fn events(&self) -> u64 {
        (self.gps + self.checkins) as u64
    }
}

/// Everything one run of a workload sends, generated from its seed.
pub struct Inputs {
    /// The workload the inputs belong to.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// The population's dataset (the batch pipeline's input).
    pub ds: Dataset,
    /// The session's `Hello` (the dataset's projection origin).
    pub hello: Request,
    /// Every frame, back to back, in the workload's wire format.
    pub bytes: Vec<u8>,
    /// One entry per frame in `bytes`, in send order.
    pub frames: Vec<FrameMeta>,
    /// `frames[..preload]` load before the timed phase.
    pub preload: usize,
    /// Earliest event time.
    pub t_first: Timestamp,
    /// First event time of the timed phase.
    pub t_split: Timestamp,
    /// Latest event time.
    pub t_last: Timestamp,
}

impl Inputs {
    /// Generate the workload's population for `seed` and encode its frames.
    pub fn build(w: &Workload, seed: u64) -> io::Result<Inputs> {
        let cfg = PopulationConfig::small(w.users, w.days);
        let population = geosocial_scenario::populate(w.scenario, &cfg, seed).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unknown scenario {}", w.scenario))
        })?;
        let ds = population.dataset;
        let origin = ds.pois.projection().origin();
        // Each user's fixes and checkins are in time order.
        let ends = || {
            ds.users.iter().flat_map(|u| {
                let gps = u.gps.points();
                [gps.first(), gps.last()]
                    .map(|p| p.map(|p| p.t))
                    .into_iter()
                    .chain([u.checkins.first(), u.checkins.last()].map(|c| c.map(|c| c.t)))
                    .flatten()
            })
        };
        let t_first = ends().min().unwrap_or(0);
        let t_last = ends().max().unwrap_or(t_first);
        let t_split = t_first + w.preload_days as i64 * DAY;
        let mut bytes = Vec::new();
        let mut frames = Vec::new();
        let mut preload = 0;
        for_each_frame(&ds, w.run_len, t_split, |req, timed| {
            let offset = bytes.len();
            wire::encode_request_frame(&mut bytes, &req, w.wire).expect("ingest frames encode");
            let (user, gps, checkins) = frame_events(&req);
            frames.push(FrameMeta { offset, len: bytes.len() - offset, user, gps, checkins });
            if !timed {
                preload = frames.len();
            }
        });
        Ok(Inputs {
            workload: w.clone(),
            seed,
            ds,
            hello: Request::Hello { origin_lat: origin.lat, origin_lon: origin.lon },
            bytes,
            frames,
            preload,
            t_first,
            t_split,
            t_last,
        })
    }

    /// The encoded bytes of frame `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        let m = &self.frames[i];
        &self.bytes[m.offset..m.offset + m.len]
    }

    /// Events carried by `frames[range]`.
    pub fn events_in(&self, range: std::ops::Range<usize>) -> u64 {
        self.frames[range].iter().map(FrameMeta::events).sum()
    }

    /// Events of every user in the inputs: what a server holds once every
    /// frame is acknowledged.
    pub fn user_events(&self) -> HashMap<UserId, u64> {
        self.ds.users.iter().map(|u| (u.id, (u.gps.len() + u.checkins.len()) as u64)).collect()
    }

    /// The seeded historical reads of this run. Reads beside ingest
    /// (`query-mix`) are nine `AsOf` to one one-hour `Window` of four users,
    /// at times drawn uniformly over the preloaded history. Reads after
    /// ingest are `AsOf` at times drawn uniformly over the first
    /// [`READ_DAYS`] of history (all of it, if shorter), so each walks the
    /// store up to its time and replays the user's events through a fresh
    /// auditor: work enough that a read's latency is not just the round
    /// trip, whose wake-ups vary most on a shared host.
    pub fn query_draws(&self, n: usize) -> Vec<Request> {
        let users: Vec<UserId> = self.ds.users.iter().map(|u| u.id).collect();
        let (span, windows) = match self.workload.reads {
            Reads::Beside => ((self.t_split - self.t_first).max(1), true),
            Reads::After => ((self.t_last - self.t_first + 1).min(READ_DAYS * DAY), false),
        };
        let draw = |i: usize, k: u64| {
            geosocial_fault::mix64(self.seed ^ geosocial_fault::mix64((i as u64) << 3 | k))
        };
        let pick = |i: usize, k: u64| users[(draw(i, k) % users.len() as u64) as usize];
        (0..n)
            .map(|i| {
                let t = self.t_first + (draw(i, 1) % span as u64) as i64;
                if windows && draw(i, 2) % 10 == 0 {
                    let cohort = (3..7).map(|k| pick(i, k)).collect();
                    Request::Window { cohort, t0: t, t1: t + HOUR }
                } else {
                    Request::AsOf { user: pick(i, 0), t }
                }
            })
            .collect()
    }
}

/// `(user, gps fixes, checkins)` of an ingest frame.
pub fn frame_events(req: &Request) -> (UserId, u32, u32) {
    match req {
        Request::Gps { user, .. } => (*user, 1, 0),
        Request::GpsRun { user, fixes, .. } => (*user, fixes.len() as u32, 0),
        Request::Checkin { user, .. } => (*user, 0, 1),
        other => unreachable!("not an ingest frame: {other:?}"),
    }
}

/// Visit every event of `ds` in `geosocial_stream::dataset_events` order —
/// event time, then user id, GPS before checkin — by merging the users'
/// streams instead of materializing and sorting the whole stream.
fn for_each_event(ds: &Dataset, mut f: impl FnMut(StreamEvent)) {
    // Per user: next GPS index, next checkin index.
    let mut cursor = vec![(0usize, 0usize); ds.users.len()];
    let head = |i: usize, (g, c): (usize, usize)| -> Option<(Timestamp, UserId, u8, usize)> {
        let u = &ds.users[i];
        let gps = u.gps.points().get(g).map(|p| (p.t, 0u8));
        let checkin = u.checkins.get(c).map(|ch| (ch.t, 1u8));
        let (t, rank) = match (gps, checkin) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some((t, u.id, rank, i))
    };
    let mut heap: BinaryHeap<Reverse<(Timestamp, UserId, u8, usize)>> =
        (0..ds.users.len()).filter_map(|i| head(i, cursor[i])).map(Reverse).collect();
    while let Some(Reverse((_, user, rank, i))) = heap.pop() {
        let u = &ds.users[i];
        let c = &mut cursor[i];
        if rank == 0 {
            f(StreamEvent::Gps { user, point: u.gps.points()[c.0] });
            c.0 += 1;
        } else {
            f(StreamEvent::Checkin { user, checkin: u.checkins[c.1] });
            c.1 += 1;
        }
        if let Some(next) = head(i, *c) {
            heap.push(Reverse(next));
        }
    }
}

/// Cut `ds` into ingest frames for one connection, calling `emit(frame,
/// timed)` in send order. Events before `split` form the untimed preload
/// phase (`timed == false`); every open run is flushed at the phase
/// boundary and at the end, in user-id order.
pub fn for_each_frame(
    ds: &Dataset,
    run_len: usize,
    split: Timestamp,
    mut emit: impl FnMut(Request, bool),
) {
    let run_len = run_len.clamp(1, wire::MAX_RUN_LEN);
    let mut seqs: HashMap<UserId, u64> = HashMap::new();
    let mut open: HashMap<UserId, (u64, Vec<WireFix>)> = HashMap::new();
    let mut timed = false;
    let run_frame = |user: UserId, (first_seq, fixes): (u64, Vec<WireFix>)| {
        if fixes.len() == 1 {
            let f = fixes[0];
            Request::Gps { user, seq: first_seq, t: f.t, lat: f.lat, lon: f.lon }
        } else {
            Request::GpsRun { user, first_seq, fixes }
        }
    };
    let flush_all = |open: &mut HashMap<UserId, (u64, Vec<WireFix>)>,
                     emit: &mut dyn FnMut(Request, bool),
                     timed: bool| {
        let mut rest: Vec<_> = open.drain().collect();
        rest.sort_unstable_by_key(|(user, _)| *user);
        for (user, run) in rest {
            emit(run_frame(user, run), timed);
        }
    };
    for_each_event(ds, |ev| {
        if !timed && ev.t() >= split {
            flush_all(&mut open, &mut emit, false);
            timed = true;
        }
        let user = ev.user();
        let seq = seqs.entry(user).or_insert(0);
        match ev {
            StreamEvent::Gps { point, .. } => {
                let fix = WireFix { t: point.t, lat: point.pos.lat, lon: point.pos.lon };
                let run = open.entry(user).or_insert_with(|| (*seq, Vec::with_capacity(run_len)));
                run.1.push(fix);
                if run.1.len() >= run_len {
                    let run = open.remove(&user).expect("run just extended");
                    emit(run_frame(user, run), timed);
                }
            }
            StreamEvent::Checkin { checkin, .. } => {
                if let Some(run) = open.remove(&user) {
                    emit(run_frame(user, run), timed);
                }
                emit(
                    Request::Checkin {
                        user,
                        seq: *seq,
                        t: checkin.t,
                        poi: checkin.poi,
                        lat: checkin.location.lat,
                        lon: checkin.location.lon,
                    },
                    timed,
                );
            }
        }
        *seq += 1;
    });
    flush_all(&mut open, &mut emit, timed);
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Write};
    use std::net::TcpListener;

    use geosocial_serve::loadgen::{self, LoadgenConfig};
    use geosocial_serve::protocol::{read_frame_into, Response, ServerStats};

    use super::*;
    use crate::spec;

    /// The ingest frames `loadgen::run` writes on one connection, as they
    /// reach a stand-in server that acknowledges everything and records the
    /// bytes of every ingest frame.
    fn loadgen_frames(w: &Workload, seed: u64) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let mut recorded = Vec::new();
            for stream in listener.incoming() {
                let stream = stream.expect("accept");
                let mut r = BufReader::new(stream.try_clone().expect("clone"));
                let mut out = stream;
                let mut buf = Vec::new();
                while let Some(len) = read_frame_into(&mut r, &mut buf).expect("read") {
                    let (req, format) = wire::decode_request(&buf[..len]).expect("decode");
                    let resp = match req {
                        Request::Gps { .. } | Request::GpsRun { .. } | Request::Checkin { .. } => {
                            recorded.extend_from_slice(&(len as u32).to_be_bytes());
                            recorded.extend_from_slice(&buf[..len]);
                            Response::Verdicts { verdicts: Vec::new() }
                        }
                        Request::Stats => Response::Stats { stats: ServerStats::default() },
                        _ => Response::Ok,
                    };
                    let mut frame = Vec::new();
                    wire::encode_response_frame(&mut frame, &resp, format).expect("encode");
                    out.write_all(&frame).expect("write");
                    // `Stats` is the replay's last request.
                    if matches!(req, Request::Stats) {
                        return recorded;
                    }
                }
            }
            recorded
        });
        let cfg = LoadgenConfig {
            scenario: w.scenario.to_string(),
            users: w.users,
            days: w.days,
            seed,
            connections: 1,
            window: spec::WINDOW,
            wire: w.wire,
            run_len: w.run_len,
            trace_sample: 0,
            ..LoadgenConfig::default()
        };
        loadgen::run(addr, &cfg).expect("loadgen replays");
        server.join().expect("stand-in server")
    }

    #[test]
    fn frames_match_the_load_generator() {
        for name in ["checkin-heavy", "router-json"] {
            let w = spec::workload(name).expect("workload").scaled(0.02);
            assert_eq!(w.preload_days, 0, "loadgen has no preload phase to cut at");
            let inputs = Inputs::build(&w, 7).expect("inputs");
            assert!(inputs.frames.len() > 100, "{name}: {} frames", inputs.frames.len());
            let theirs = loadgen_frames(&w, 7);
            assert_eq!(theirs.len(), inputs.bytes.len(), "{name}: bytes on the wire");
            assert!(theirs == inputs.bytes, "{name}: frames differ from loadgen's");
        }
    }
}
