//! `mr-mix`: closed rounds of a two-tenant job mix on `JobTracker` with the
//! fair scheduler, over BSFS. Each round submits at once one distributed
//! sort and one combining word count from tenant `batch`, and twenty tiny
//! greps from tenant `adhoc`; the next round starts when every job of the
//! previous one has finished. Every job's output is checked against
//! `JobTracker::run_inmem` on the same input, and the sort's output must be
//! globally ordered.

use crate::deploy::{self, Footprint, StoreCounters};
use crate::gen;
use crate::measure::Usage;
use crate::trace::{Tracer, TracingFs, TracingMapper, TracingReducer};
use crate::{Corruption, Measured, Params, Scale, Window};
use blobseer::BlobSeerConfig;
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::{BsfsFs, DistFs, FairScheduler, Job, JobResult, JobTracker, MrResult, TaskTracker};
use simcluster::NodeId;
use std::sync::Arc;
use std::time::Instant;
use workloads::TextGenerator;

const PAGE: u64 = 16 * 1024;
const BLOCK: u64 = 64 * 1024;
const SPLIT: u64 = 64 * 1024;
const GREPS: usize = 20;
const SORT_REDUCERS: usize = 4;
const WC_REDUCERS: usize = 2;

struct Sizes {
    sort_bytes: usize,
    wc_bytes: usize,
    grep_bytes: usize,
    rounds_per_cluster: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            sort_bytes: 4 * 1024 * 1024,
            wc_bytes: 4 * 1024 * 1024,
            grep_bytes: 8 * 1024,
            rounds_per_cluster: 8,
        },
        Scale::Tiny => Sizes {
            sort_bytes: 32 * 1024,
            wc_bytes: 32 * 1024,
            grep_bytes: 2 * 1024,
            rounds_per_cluster: 2,
        },
    }
}

/// One job of the mix: its template (output directory unset), tenant and
/// the oracle's output.
struct MixJob {
    name: String,
    adhoc: bool,
    template: Job,
    expected: Vec<u8>,
}

struct Cluster {
    net: Arc<wire::SimNet>,
    sys: Arc<blobseer::BlobSeer>,
    fs: Arc<BsfsFs>,
    jt: JobTracker,
    mix: Vec<MixJob>,
}

/// A copy of `job` writing to `output_dir`; in a traced pass its user
/// functions are wrapped to time them.
fn instance(job: &Job, output_dir: &str, tracer: Option<&Arc<Tracer>>) -> Job {
    let mut config = job.config.clone();
    config.output_dir = output_dir.to_string();
    let (mapper, reducer) = match tracer {
        Some(t) => (
            Arc::new(TracingMapper {
                inner: Arc::clone(&job.mapper),
                tracer: Arc::clone(t),
            }) as Arc<dyn mapreduce::Mapper>,
            Arc::new(TracingReducer {
                inner: Arc::clone(&job.reducer),
                tracer: Arc::clone(t),
            }) as Arc<dyn mapreduce::Reducer>,
        ),
        None => (Arc::clone(&job.mapper), Arc::clone(&job.reducer)),
    };
    Job {
        config,
        mapper,
        reducer,
        partitioner: Arc::clone(&job.partitioner),
    }
}

/// The concatenated `part-*` files of a finished job.
fn output_of(fs: &dyn DistFs, files: &[String]) -> MrResult<Vec<u8>> {
    let mut out = Vec::new();
    for f in files {
        out.extend_from_slice(&fs.read_file(f)?);
    }
    Ok(out)
}

fn setup(p: &Params, sz: &Sizes, tracer: Option<&Arc<Tracer>>) -> MrResult<Cluster> {
    let topo = deploy::topology();
    let net = deploy::simnet(&topo);
    let config = BlobSeerConfig::default()
        .with_page_size(PAGE)
        .with_page_replication(1);
    let sys = deploy::blobseer(config, &topo, &net, tracer);
    let bsfs = Bsfs::new(
        Arc::clone(&sys),
        BsfsConfig::default()
            .with_block_size(BLOCK)
            .with_page_size(PAGE),
    );
    let fs = Arc::new(BsfsFs::new(bsfs));
    let text = |label: u64, bytes: usize| {
        TextGenerator::new(gen::derive(p.seed, label)).text_of_at_least(bytes)
    };
    fs.write_file("/in/sort.txt", text(1, sz.sort_bytes).as_bytes())?;
    fs.write_file("/in/wc.txt", text(2, sz.wc_bytes).as_bytes())?;
    let mut templates = vec![
        (
            "sort".to_string(),
            false,
            workloads::distributed_sort_job(
                &*fs,
                vec!["/in/sort.txt".into()],
                "",
                SORT_REDUCERS,
                SPLIT,
            )?,
        ),
        (
            "wc".to_string(),
            false,
            workloads::word_count_job_combining(vec!["/in/wc.txt".into()], "", WC_REDUCERS, SPLIT),
        ),
    ];
    for i in 0..GREPS {
        let path = format!("/in/grep-{i:02}.txt");
        let body = text(100 + i as u64, sz.grep_bytes);
        // Search for a word of the file's first line: every grep matches.
        let pattern = body
            .split_whitespace()
            .nth(i % 4)
            .unwrap_or("data")
            .to_string();
        fs.write_file(&path, body.as_bytes())?;
        templates.push((
            format!("grep-{i:02}"),
            true,
            workloads::distributed_grep_job(vec![path], "", &pattern, SPLIT),
        ));
    }
    for (_, adhoc, job) in &mut templates {
        job.config.tenant = if *adhoc { "adhoc" } else { "batch" }.into();
    }
    let trackers = deploy::provider_nodes(&topo)
        .into_iter()
        .map(TaskTracker::new)
        .collect();
    let jt = JobTracker::with_trackers(&topo, trackers)
        .with_scheduler(Arc::new(FairScheduler::new()))
        .with_transport(
            deploy::transport(&net, tracer, "control"),
            deploy::client_node(&topo, 0),
        );
    let mut mix = Vec::with_capacity(templates.len());
    for (name, adhoc, template) in templates {
        let oracle = jt.run_inmem(&*fs, &instance(&template, &format!("/oracle/{name}"), None))?;
        let expected = output_of(&*fs, &oracle.output_files)?;
        mix.push(MixJob {
            name,
            adhoc,
            template,
            expected,
        });
    }
    Ok(Cluster {
        net,
        sys,
        fs,
        jt,
        mix,
    })
}

pub fn run(p: &Params, tracer: Option<&Arc<Tracer>>) -> Result<Measured, String> {
    let sz = sizes(p.scale);
    let mut r = Measured {
        params: vec![
            ("sort_bytes", sz.sort_bytes.to_string()),
            ("wc_bytes", sz.wc_bytes.to_string()),
            ("greps", GREPS.to_string()),
            ("grep_bytes", sz.grep_bytes.to_string()),
            ("page_bytes", PAGE.to_string()),
            ("block_bytes", BLOCK.to_string()),
            ("split_bytes", SPLIT.to_string()),
            ("scheduler", "fair".into()),
            ("rounds_per_cluster", sz.rounds_per_cluster.to_string()),
        ],
        ..Measured::default()
    };
    let topo = deploy::topology();
    let submitter = deploy::client_node(&topo, 0);
    let spawned0 = miniexec::census::spawned();
    let (mut round, mut clusters) = (0usize, 0usize);
    while r.measured_s < p.measure.as_secs_f64() {
        // Set-up: a fresh cluster with its inputs and oracle outputs. BSFS
        // never frees the pages of deleted files, so the cluster is rebuilt
        // every few rounds to keep memory independent of how many rounds a
        // run completes.
        deploy::wait_for_teardown()?;
        let t0 = Instant::now();
        let c = setup(p, &sz, tracer).map_err(|e| format!("mr-mix set-up: {e}"))?;
        r.setup_s.push(t0.elapsed().as_secs_f64());
        clusters += 1;
        let job_fs: Arc<dyn DistFs> = match tracer {
            Some(t) => Arc::new(TracingFs::new(c.fs.clone(), Arc::clone(t), submitter)),
            None => c.fs.clone(),
        };
        let control0 = c.jt.control_counters().map_or(0, |w| w.messages());
        for _ in 0..sz.rounds_per_cluster {
            if r.measured_s >= p.measure.as_secs_f64() {
                break;
            }
            // Only the rounds are measured; the output checks between them
            // stay out of every counter.
            let dir = format!("/out/r{round:04}");
            c.net.reset();
            let store0 = StoreCounters::take(&c.sys);
            let usage0 = Usage::now();
            if let Some(t) = tracer {
                t.set_enabled(true);
            }
            let round_start = Instant::now();
            let done = run_round(&c, &job_fs, &dir, submitter, tracer);
            let took = round_start.elapsed();
            if let Some(t) = tracer {
                t.set_enabled(false);
            }
            let usage = Usage::now().since(&usage0);
            r.usage.add(&usage);
            r.store.add(&StoreCounters::take(&c.sys).since(&store0));
            r.virtual_s += c.net.makespan().as_secs_f64();
            r.measured_s += took.as_secs_f64();
            r.secondary.push(took);
            let ok = done.iter().filter_map(|o| o.as_ref().ok());
            r.windows.push(Window {
                secs: took.as_secs_f64(),
                bytes: ok.clone().map(|(_, _, res)| res.input_bytes).sum(),
                ops: ok.count() as u64,
                cpu_s: usage.user_s + usage.sys_s,
            });
            for (job, outcome) in c.mix.iter().zip(done) {
                r.attempted += 1;
                let Ok((submitted, finished, result)) = outcome else {
                    r.failed += 1;
                    continue;
                };
                let latency = finished - submitted;
                if job.adhoc {
                    r.primary.push(latency);
                }
                r.mr.queue_waits
                    .push(latency.saturating_sub(result.elapsed));
                r.user_bytes += result.input_bytes;
                r.mr.map_tasks += result.map_tasks as u64;
                r.mr.reduce_tasks += result.reduce_tasks as u64;
                r.mr.task_retries += result.task_retries as u64;
                let l = result.locality;
                r.mr.data_local += l.data_local as u64;
                r.mr.located_tasks += (l.data_local + l.rack_local + l.remote) as u64;
                r.mr.spill_bytes += result.shuffle.spill_bytes;
                r.mr.segments_fetched += result.shuffle.segments_fetched;
                r.mr.shuffle_read_rts += result.shuffle.shuffle_read_round_trips;
                r.mr.merge_runs += result.shuffle.merge_runs;
                if p.corrupt == Corruption::JobOutput && job.adhoc {
                    let part = &result.output_files[0];
                    c.fs.delete(part, false).map_err(|e| e.to_string())?;
                    c.fs.write_file(part, b"corrupt\t1\n")
                        .map_err(|e| e.to_string())?;
                }
                check(&c, job, &result)?;
            }
            c.fs.delete(&dir, true).map_err(|e| e.to_string())?;
            round += 1;
        }
        r.mr.control_messages += c.jt.control_counters().map_or(0, |w| w.messages()) - control0;
        r.footprint.add(&Footprint::take(&c.sys));
    }
    r.census_spawned = (miniexec::census::spawned() - spawned0) as u64;
    r.params.push(("rounds", round.to_string()));
    r.params.push(("clusters", clusters.to_string()));
    Ok(r)
}

type Outcome = Result<(Instant, Instant, JobResult), String>;

/// Submit the whole mix at once and wait for every job; each job's
/// completion is taken by its own waiter, so no job's latency hides behind
/// another's.
fn run_round(
    c: &Cluster,
    fs: &Arc<dyn DistFs>,
    dir: &str,
    node: NodeId,
    tracer: Option<&Arc<Tracer>>,
) -> Vec<Outcome> {
    let submitted: Vec<_> = c
        .mix
        .iter()
        .map(|job| {
            let at = Instant::now();
            let handle = c.jt.submit(
                Arc::clone(fs),
                instance(&job.template, &format!("{dir}/{}", job.name), tracer),
            );
            (at, handle)
        })
        .collect();
    std::thread::scope(|s| {
        let waiters: Vec<_> = submitted
            .into_iter()
            .map(|(at, handle)| {
                s.spawn(move || -> Outcome {
                    let result = handle.and_then(|h| h.wait()).map_err(|e| e.to_string())?;
                    let done = Instant::now();
                    if let Some(t) = tracer {
                        t.span_since(node, "mapreduce", "job", at);
                    }
                    Ok((at, done, result))
                })
            })
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("job waiter panicked"))
            .collect()
    })
}

/// A job's output must equal the in-memory oracle's; the sort's must also
/// be globally ordered.
fn check(c: &Cluster, job: &MixJob, result: &JobResult) -> Result<(), String> {
    let got = output_of(&*c.fs, &result.output_files).map_err(|e| e.to_string())?;
    if got != job.expected {
        return Err(format!(
            "mr-mix: {} output ({} bytes) differs from the in-memory oracle ({} bytes)",
            job.name,
            got.len(),
            job.expected.len()
        ));
    }
    if job.name == "sort" {
        let text = String::from_utf8_lossy(&got);
        let mut lines = text.lines();
        if let Some(mut prev) = lines.next() {
            for line in lines {
                if line < prev {
                    return Err("mr-mix: sort output is not globally ordered".into());
                }
                prev = line;
            }
        }
    }
    Ok(())
}
