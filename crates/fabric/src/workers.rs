//! Persistent epoch workers: the threads that run member partitions
//! in parallel inside an epoch.
//!
//! An epoch of member work is short (tens of microseconds on the
//! `rack` ring), so spawning and joining threads per epoch costs more
//! than the work it splits. Instead the fabric owns a small pool that
//! it spawns on the first parallel epoch and reuses for every later
//! epoch of every run call. Each epoch the caller thread keeps member
//! partition 0, hands every other contiguous partition to one worker
//! *by value* over a channel, runs its own share, and takes the
//! partitions back in partition order — so the member vector is back
//! in index order before the serial boundary exchange, and no `unsafe`
//! sharing is needed. Partition vectors are recycled, so a steady
//! parallel epoch allocates nothing.
//!
//! Both sides wait with a short bounded spin (`spin_loop`, then
//! `yield_now`) before blocking on the channel: a hand-off between
//! back-to-back epochs usually lands within the spin, and a thread
//! whose peer is descheduled (more threads than cores) soon yields and
//! then sleeps instead of burning the core the peer needs.

use std::sync::mpsc::{self, Receiver, RecvError, Sender, TryRecvError};
use std::thread::JoinHandle;

use sim_core::time::Cycle;

use crate::fleet::{run_member, Member, RunMode};

/// Channel polls with a `spin_loop` hint before a waiter starts
/// yielding its core.
const SPINS: u32 = 64;
/// Polls with `yield_now` after the spins before a waiter blocks.
const YIELDS: u32 = 256;

/// One epoch's work for one worker: a contiguous member partition,
/// moved in by value and handed back with its summed skip count.
#[derive(Debug)]
struct Job {
    members: Vec<Member>,
    from: Cycle,
    to: Cycle,
    run: RunMode,
    skipped: u64,
}

/// One persistent worker thread and its two channels.
#[derive(Debug)]
struct Worker {
    jobs: Sender<Job>,
    done: Receiver<Job>,
    handle: JoinHandle<()>,
    /// The partition vector from the last job, kept for its capacity.
    spare: Vec<Member>,
}

impl Worker {
    fn spawn(index: usize) -> Worker {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done) = mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name(format!("fabric-worker-{index}"))
            .spawn(move || {
                while let Ok(mut job) = wait(&job_rx) {
                    let (from, to, run) = (job.from, job.to, job.run);
                    job.skipped = job
                        .members
                        .iter_mut()
                        .map(|m| run_member(m, from, to, run))
                        .sum();
                    if done_tx.send(job).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to spawn a fabric worker thread");
        Worker {
            jobs,
            done,
            handle,
            spare: Vec::new(),
        }
    }

    /// Closes the job channel and joins the thread. A worker that died
    /// from a member panic has already reported it to the epoch that
    /// was waiting on it, so its join result is dropped here.
    fn shutdown(self) {
        let Worker { jobs, handle, .. } = self;
        drop(jobs);
        let _ = handle.join();
    }
}

/// The fabric's worker pool. Empty until the first parallel epoch;
/// dropping it joins every worker.
#[derive(Debug, Default)]
pub(crate) struct EpochWorkers {
    workers: Vec<Worker>,
}

impl EpochWorkers {
    /// Joins every worker past the first `n`.
    pub(crate) fn truncate(&mut self, n: usize) {
        let keep = n.min(self.workers.len());
        for w in self.workers.drain(keep..) {
            w.shutdown();
        }
    }

    /// Runs `members` over `[from, to)` as `parts` contiguous
    /// partitions whose sizes differ by at most one: partition 0 on
    /// the calling thread, partition `k` on worker `k - 1`. On return
    /// `members` holds every member again, in its original order.
    /// Returns the members' summed skip counts.
    ///
    /// # Panics
    /// Re-raises (as a panic of its own) a panic on any worker.
    pub(crate) fn run(
        &mut self,
        members: &mut Vec<Member>,
        parts: usize,
        from: Cycle,
        to: Cycle,
        run: RunMode,
    ) -> u64 {
        while self.workers.len() < parts - 1 {
            self.workers.push(Worker::spawn(self.workers.len() + 1));
        }
        let n = members.len();
        // Peel partitions off the tail so each `drain` is a suffix.
        for k in (1..parts).rev() {
            let w = &mut self.workers[k - 1];
            let mut batch = std::mem::take(&mut w.spare);
            batch.extend(members.drain(k * n / parts..));
            let job = Job {
                members: batch,
                from,
                to,
                run,
                skipped: 0,
            };
            w.jobs.send(job).expect("fabric worker panicked");
        }
        let mut skipped: u64 = members
            .iter_mut()
            .map(|m| run_member(m, from, to, run))
            .sum();
        for w in &mut self.workers[..parts - 1] {
            let mut job = wait(&w.done).expect("fabric worker panicked");
            skipped += job.skipped;
            members.append(&mut job.members);
            w.spare = job.members;
        }
        skipped
    }
}

impl Drop for EpochWorkers {
    fn drop(&mut self) {
        self.truncate(0);
    }
}

/// Receives from `rx`: a bounded spin, then yields, then a blocking
/// receive. Errors only when the sending side is gone.
fn wait<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for i in 0..SPINS + YIELDS {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if i < SPINS => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv()
}
