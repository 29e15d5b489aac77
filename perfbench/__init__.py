"""The repository benchmark: entry-point workloads behind one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  See ``perfbench/README.md`` for what each
workload drives and how every metric is defined.
"""

#: Workload name -> module implementing ``make_inputs(seed)`` and
#: ``run(inputs, seconds, trace)``.
WORKLOADS = {
    "radii-batch": "perfbench.radii_batch",
    "service-stream": "perfbench.service_stream",
    "lab-replay": "perfbench.lab_replay",
}
