// Package shard runs a sweep as a fleet of independent OS worker
// processes under a supervising parent — the crash-isolation layer above
// the in-process worker-pool scheduler in internal/suite.
//
// The shape follows the sharded-MPI pattern (sync rarely, exchange
// compact deltas): the parent partitions the sweep axis into shards,
// launches each shard as a child process that checkpoints every
// completed cell into its own journal segment, and only synchronises at
// the end, when the segments are merged deterministically back into the
// canonical campaign journal (suite.MergeShardJournals). A shard that
// dies — panic, nonzero exit, SIGKILL, or a heartbeat gone silent —
// loses at most its own in-flight cells: its completed cells are already
// fsynced in its segment, and the supervisor relaunches it with bounded
// backoff. A shard that keeps dying is bisected until the poison cell is
// isolated and quarantined, degrading the campaign to a partial result
// instead of failing it.
//
// This package is on the wall-clock side of the two-plane architecture:
// it may use os/exec, the wall clock, and the live telemetry plane, and
// deterministic packages must not import it (greenvet's layering rules
// enforce both directions). Everything that decides bytes — which cells
// run, what the merged journal holds, how artifacts render — lives on
// the deterministic side, in internal/suite.
package shard

// Task is one unit of supervision: a set of axis points one worker
// process must complete. Initial tasks are whole shards; bisection
// produces narrower tasks with the same Shard index.
type Task struct {
	// Shard is the index of the original shard this task descends from,
	// used for logs, heartbeat attribution and fault-hook selection.
	Shard int `json:"shard"`
	// Procs is the ordered slice of axis points the worker must run.
	Procs []int `json:"procs"`
}

// Partition splits the sweep axis into n contiguous shards of near-equal
// size, in axis order. It is a pure function of its arguments — the same
// axis and shard count always produce the same partition, which is what
// makes a sharded campaign resumable and its merged output independent
// of scheduling. Fewer axis points than shards yield one shard per
// point; n < 1 is treated as 1.
func Partition(axis []int, n int) []Task {
	if n < 1 {
		n = 1
	}
	if n > len(axis) {
		n = len(axis)
	}
	if n == 0 {
		return nil
	}
	tasks := make([]Task, 0, n)
	base, extra := len(axis)/n, len(axis)%n
	at := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		tasks = append(tasks, Task{
			Shard: i,
			Procs: append([]int(nil), axis[at:at+size]...),
		})
		at += size
	}
	return tasks
}
