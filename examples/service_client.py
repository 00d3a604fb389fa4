"""Drive the simulation service end to end: serve, submit, stream, dedup.

Starts an in-process server (no separate terminal needed), submits the
paper's four-scheme sweep as a job, streams the NDJSON events, decodes
the results, then resubmits the identical spec to show the dedup /
coalescing layers at work in ``/stats``.

Run:  python examples/service_client.py

Against an already-running ``python -m repro serve``, replace the
server setup below with ``client = ServiceClient("http://host:8642")``.
"""

from repro import scheme_label
from repro.service import Scheduler, ServiceClient, ServiceServer


def main() -> None:
    # 1. Start a service. `repro serve` does exactly this behind a CLI.
    server = ServiceServer(Scheduler(workers=2), port=0)
    server.start()
    client = ServiceClient(server.url)
    print(f"service up at {server.url}\n")

    try:
        # 2. Submit the paper's four schemes over a POPS-like trace.
        spec = {
            "schemes": ["dir1nb", "wti", "dir0b", "dragon"],
            "traces": [{"workload": "pops", "length": 20_000, "seed": 1}],
            "tags": {"study": "service-demo"},
        }
        job = client.submit(spec)
        print(f"submitted job {job['id']} "
              f"({job['cells']['total']} cells, state={job['state']})\n")

        # 3. Follow the live event stream until the job is terminal.
        for event in client.stream_events(job["id"]):
            if event["type"] == "cell":
                print(f"  cell {event['scheme']:>7} / {event['trace']}: "
                      f"{event['status']} (source={event['source']})")
            else:
                print(f"  job -> {event['state']}\n")

        # 4. Results decode into the same SimulationResult objects a
        #    local `repro run` produces — bit-identical, in fact.
        results = client.results(job["id"])
        print("data miss rate per scheme:")
        for scheme, per_trace in results.items():
            for trace_name, result in per_trace.items():
                rate = 100 * result.frequencies().data_miss_rate()
                print(f"  {scheme_label(scheme):>22}: {rate:.3f} %")

        # 5. Resubmit the identical sweep: every cell is served from
        #    the result cache — zero duplicate simulations.
        again = client.submit(spec)
        final = client.wait(again["id"])
        stats = client.stats()
        print(f"\nresubmission {again['id']}: state={final['state']}, "
              f"cells from cache={final['cells']['cache']}, "
              f"freshly simulated={final['cells']['simulated']}")
        print(f"server totals: simulated={stats['cells']['simulated']}, "
              f"cache={stats['cells']['cache']}, "
              f"coalesced={stats['cells']['coalesced']}")
    finally:
        server.stop(mode="drain", timeout=60.0)
        print("\nserver drained and stopped")


if __name__ == "__main__":
    main()
