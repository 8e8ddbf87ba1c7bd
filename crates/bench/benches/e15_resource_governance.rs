//! E15 — resource governance: what the memory governor and the checkpoint/resume
//! machinery cost, and what resume buys over replay.
//!
//! Three questions, each with a committed lock:
//!
//! * `session_check_governed/{off,on}` — one depth-1024 incremental check bare (`off`)
//!   vs with the per-request work the governed server adds on top of it (`on`): reading
//!   the session's `memory_bytes()` estimate and updating a mutex-guarded ledger, which
//!   is exactly what `rdms-serve` does after every request under `--memory-budget-mb`.
//!   The baseline locks `on ≤ 1.25 × off` — governance must stay a bounded surcharge on
//!   the hot path, like certificates (E13) and journaling (E14) before it.
//! * `snapshot/{1024,2048}` — capturing a [`SessionSnapshot`] of a depth-1024 (2048)
//!   session and serializing it to the checkpoint's JSON form. This is the drain-time
//!   cost of checkpointing, paid once per drain, never per check. The checkpoint stores
//!   the run's accepted steps, not its configurations, so it grows linearly with the
//!   run; the baseline locks `snapshot/2048 ≤ 3.0 × snapshot/1024` and
//!   `snapshot/1024 ≤ 1.0 × replay/1024` (writing a checkpoint must not cost more than
//!   the replay it exists to avoid). The doubling lock sits above 2× because this loop
//!   re-walks the same spine hot: 1024 nodes stay within the cache and TLB reach and
//!   2048 do not, so the linear form reads ~2.5× while its bytes double exactly; the quadratic
//!   form (every configuration in full) reads ~3.6×.
//! * `resume/1024` vs `replay/1024` — rebuilding the same depth-1024 session from its
//!   in-memory snapshot vs re-checking every transaction from scratch. The baseline
//!   locks `resume ≤ 1.0 × replay`: a resume that is not at least as fast as replay
//!   would make checkpoints pointless, since full journal replay is always available and
//!   self-validating.
//! * `restore/1024` — the boot-time path end to end: decoding the checkpoint JSON
//!   (which replays and so re-validates every stored step under the recency-bounded
//!   semantics) plus [`Session::resume`]. Locked at `restore ≤ 1.5 × replay`: decoding
//!   re-applies each step but skips the invariant evaluation and the wire decoding that
//!   replay pays per transaction.
//! * `search/{plain,checkpointed}` — one full bounded-explorer invariant search bare vs
//!   with [`CheckpointPolicy::every`] snapshotting the live frontier as it runs. The
//!   baseline locks `checkpointed ≤ 1.25 × plain`: cooperative checkpoint *emission*
//!   must stay a bounded surcharge on the search it protects, exactly like certificate
//!   emission (E13).
//!
//! [`SessionSnapshot`]: rdms_serve::journal::SessionSnapshot
//! [`CheckpointPolicy::every`]: rdms_checker::CheckpointPolicy::every

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{CheckpointPolicy, Explorer, ExplorerConfig};
use rdms_db::{Query, RelName};
use rdms_serve::journal::SessionSnapshot;
use rdms_serve::{CheckOutcome, Session};
use rdms_workloads::audit;
use rdms_workloads::streams::{wire_transaction, TransactionStream};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Streams in the audit workload; sets both the schema width and the recency bound.
const STREAMS: usize = 3;
/// Invariant of [`audit::first_stream_has_a_head`] in the wire's concrete syntax.
const INVARIANT: &str = "init | exists u. S0(u)";
/// Session depth every leg measures at — matches E14's long-session point.
const LEN: usize = 1024;

type WireTransactions = Vec<(String, BTreeMap<String, u64>)>;

fn transactions(count: usize, seed: u64) -> WireTransactions {
    let dms = Arc::new(audit::dms(STREAMS));
    TransactionStream::new(Arc::clone(&dms), audit::recency_bound(STREAMS), seed)
        .take(count)
        .map(|step| wire_transaction(&dms, &step))
        .collect()
}

fn open_session() -> Session {
    Session::open(
        audit::dms(STREAMS),
        audit::recency_bound(STREAMS),
        INVARIANT,
        false,
    )
    .expect("audit invariant parses and is closed")
}

fn advance(session: &mut Session, script: &[(String, BTreeMap<String, u64>)]) {
    for (action, bindings) in script {
        assert!(
            matches!(session.check(action, bindings), CheckOutcome::Ok { .. }),
            "streamed audit transactions are always accepted"
        );
    }
}

/// A depth-`LEN` session plus the next transaction of its script, ready to re-check.
fn pinned_session() -> (Session, (String, BTreeMap<String, u64>)) {
    let script = transactions(LEN + 1, 7);
    let mut session = open_session();
    advance(&mut session, &script[..LEN]);
    let next = script[LEN].clone();
    (session, next)
}

/// The governed-vs-bare check pair behind the `on ≤ 1.25 × off` ratio lock.
fn bench_governed_check(c: &mut Criterion) {
    let (session, (action, bindings)) = pinned_session();
    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);

    group.bench_with_input(
        BenchmarkId::new("session_check_governed", "off"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut fresh = session.clone();
                matches!(fresh.check(&action, &bindings), CheckOutcome::Ok { .. })
            })
        },
    );

    // the governed server's extra per-request work: re-measure the session and fold the
    // figure into a process-wide mutex-guarded ledger (same shape as `rdms-serve`'s)
    let seats: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::from([(1, 0)]));
    group.bench_with_input(
        BenchmarkId::new("session_check_governed", "on"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut fresh = session.clone();
                let ok = matches!(fresh.check(&action, &bindings), CheckOutcome::Ok { .. });
                let bytes = fresh.memory_bytes();
                let total: usize = {
                    let mut seats = seats.lock().expect("ledger mutex never poisoned");
                    seats.insert(1, bytes);
                    seats.values().sum()
                };
                assert!(total > 0);
                ok
            })
        },
    );
    group.finish();
}

/// Drain-time checkpoint capture and the resume-vs-replay race it enables.
fn bench_checkpoint_and_resume(c: &mut Criterion) {
    let script = transactions(2 * LEN, 7);
    let mut session = open_session();
    advance(&mut session, &script[..LEN]);
    let snapshot = session.snapshot();
    let json = serde_json::to_string(&snapshot).expect("snapshots serialize");
    let mut deep = open_session();
    advance(&mut deep, &script);
    let script = &script[..LEN];

    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);
    // restore and replay run ~15 ms an iteration: without a floor the 25 ms smoke budget
    // times each from a single call, too few for the ratio locks between them
    group.min_iterations(8);

    for (depth, session) in [(LEN, &session), (2 * LEN, &deep)] {
        group.bench_with_input(BenchmarkId::new("snapshot", depth), &depth, |bench, _| {
            bench.iter(|| {
                let snapshot = session.snapshot();
                serde_json::to_string(&snapshot).expect("snapshots serialize")
            })
        });
    }

    group.bench_with_input(BenchmarkId::new("resume", LEN), &LEN, |bench, _| {
        bench.iter(|| {
            let resumed =
                Session::resume(snapshot.clone()).expect("a live session's snapshot resumes");
            assert_eq!(resumed.transactions(), LEN);
            resumed
        })
    });

    group.bench_with_input(BenchmarkId::new("restore", LEN), &LEN, |bench, _| {
        bench.iter(|| {
            let snapshot = serde_json::from_str::<SessionSnapshot>(&json)
                .expect("a live session's checkpoint decodes");
            let restored = Session::resume(snapshot).expect("a decoded checkpoint resumes");
            assert_eq!(restored.transactions(), LEN);
            restored
        })
    });

    group.bench_with_input(BenchmarkId::new("replay", LEN), &LEN, |bench, _| {
        bench.iter(|| {
            let mut session = open_session();
            advance(&mut session, script);
            assert_eq!(session.transactions(), LEN);
            session
        })
    });
    group.finish();
}

/// Cooperative checkpoint emission inside a full explorer search, behind the
/// `checkpointed ≤ 1.25 × plain` ratio lock. The policy snapshots the frontier every 16
/// admitted configurations — far more often than an operator would — so the lock bounds
/// an upper estimate of the emission cost.
fn bench_search_checkpoint_overhead(c: &mut Criterion) {
    let dms = rdms_workloads::figure1::dms();
    let invariant = Query::prop(RelName::new("p"));
    let config = || ExplorerConfig {
        depth: 3,
        max_configs: 10_000,
        // pin to the sequential engine: checkpointed searches always run sequentially,
        // so the plain leg must measure the same code path
        threads: 1,
        ..Default::default()
    };

    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("search", "plain"), &(), |bench, ()| {
        bench.iter(|| {
            Explorer::new(&dms, 2)
                .with_config(config())
                .check_invariant(&invariant)
                .holds()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("search", "checkpointed"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let policy = CheckpointPolicy::every(16);
                let verdict = Explorer::new(&dms, 2)
                    .with_config(config().with_checkpoint(policy.clone()))
                    .check_invariant(&invariant);
                assert!(policy.has_snapshot(), "the cadence fired during the search");
                verdict.holds()
            })
        },
    );
    group.finish();
}

/// The resume path must land on the same state as the uninterrupted session — asserted
/// once outside the timing loops so a broken resume cannot hide behind fast numbers.
fn assert_resume_is_exact(snapshot: &SessionSnapshot, original: &Session) {
    let resumed = Session::resume(snapshot.clone()).expect("snapshot resumes");
    assert_eq!(resumed.transactions(), original.transactions());
    assert_eq!(resumed.memory_bytes(), original.memory_bytes());
    // and through the checkpoint's on-disk form, which replays the stored steps
    let json = serde_json::to_string(snapshot).expect("snapshots serialize");
    let decoded = serde_json::from_str::<SessionSnapshot>(&json).expect("checkpoint decodes");
    assert_eq!(decoded.run, snapshot.run);
    let restored = Session::resume(decoded).expect("decoded checkpoint resumes");
    assert_eq!(restored.transactions(), original.transactions());
    assert_eq!(restored.violations(), original.violations());
    assert_eq!(restored.memory_bytes(), original.memory_bytes());
}

fn bench_resume_exactness(c: &mut Criterion) {
    // piggy-back the oracle on the harness so `cargo bench` exercises it every run;
    // criterion requires at least one measurement, so time the cheap accessor
    let script = transactions(64, 7);
    let mut session = open_session();
    advance(&mut session, &script);
    let snapshot = session.snapshot();
    assert_resume_is_exact(&snapshot, &session);

    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);
    group.bench_function("memory_bytes", |bench| {
        bench.iter(|| session.memory_bytes())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_governed_check,
    bench_checkpoint_and_resume,
    bench_search_checkpoint_overhead,
    bench_resume_exactness
);
criterion_main!(benches);
