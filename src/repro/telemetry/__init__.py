"""Fleet-wide telemetry: spans, counters, gauges, shards, and serving.

The subsystem has four layers, each importable on its own:

* :mod:`repro.telemetry.recorder` — the span/counter/gauge API every
  instrumented layer calls.  Disabled by default (:data:`NULL_RECORDER`),
  in which case recording is a no-op and simulation outputs are
  bit-identical to an uninstrumented build.
* :mod:`repro.telemetry.shards` — per-worker JSONL metric shards under
  ``<store>/telemetry/`` with a deterministic merge.
* :mod:`repro.telemetry.fleet` — the merged fleet-status payload plus its
  text / Prometheus renderings.
* :mod:`repro.telemetry.serve` — the stdlib HTTP server behind
  ``perigee-sim serve``.
* :mod:`repro.telemetry.flight` — the per-run flight recorder behind
  ``--flight-recorder`` / ``perigee-sim inspect`` (per-round rewire,
  score, topology, and delay traces under ``<store>/runs/``).
* :mod:`repro.telemetry.chrome` — Chrome-trace (Perfetto) export of
  ``MetricsRecorder(trace=True)`` span streams.

Typical enablement (what ``perigee-sim worker --telemetry`` does)::

    from repro.telemetry.recorder import MetricsRecorder, use_recorder

    recorder = MetricsRecorder()
    with use_recorder(recorder):
        ...  # run rounds / tasks; spans and counters accumulate
    print(recorder.snapshot())
"""
