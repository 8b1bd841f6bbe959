"""Benchmark harness for the CNFET circuit engine (see ../README.md).

Nothing here imports ``repro`` at module level: the entry point puts
the checkout's ``src`` on the path and times the import itself.
"""
