"""Coordinator-free distributed sweep execution over a shared store directory.

The evaluation grid is embarrassingly parallel and every task is
content-addressed and picklable (PR 1), so distributing it needs no broker:
the result-store directory itself is the coordination medium.

* :mod:`repro.runtime.cluster.queue` — durable on-disk work queue: one task
  file per content hash, ``O_CREAT|O_EXCL`` lease files with mtime
  heartbeats, expiry-based reclamation of crashed workers' tasks, and a
  bounded retry count before a task is recorded as failed;
* :mod:`repro.runtime.cluster.worker` — the ``perigee-sim worker`` daemon:
  claim, heartbeat on a thread, execute, append to a per-worker result
  shard, retire the queue entry;
* :mod:`repro.runtime.cluster.executor` — :class:`ClusterExecutor`, a
  drop-in :func:`~repro.runtime.executor.execute_sweep` executor that
  publishes tasks to the queue and drains it cooperatively with any
  external workers pointed at the same store.

Typical use, mirroring the CLI::

    # terminal 1 — publish work and participate in draining it
    perigee-sim figure3a --store runs/ --cluster

    # terminal 2..N — help drain (any machine sharing runs/)
    perigee-sim worker --store runs/

or fully decoupled::

    perigee-sim submit figure3a --store runs/ --repeats 3
    perigee-sim worker --store runs/ --drain   # xN processes/machines
    perigee-sim status --store runs/
    perigee-sim resume --store runs/           # aggregate + report
"""
