"""The end-to-end benchmark: six workloads over the simulator and TCP
stacks, with a per-layer attribution of where each op's time goes.

See ``README.md`` in this directory for the workloads, metrics, bounds
and how to read the layer table.
"""
