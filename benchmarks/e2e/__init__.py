"""End-to-end benchmark of what a user of the reproduction waits for.

Whole paper-figure runs, the collective bake-off and the fault/live sweep,
each timed cold and warm in its own fresh process, with every simulated
number checked. ``python -m benchmarks.e2e.run --help`` lists the options;
README.md defines the metrics and the measurement protocol.
"""
