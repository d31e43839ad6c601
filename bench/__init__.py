"""The StreamWorks benchmark (see ``bench/README.md``; run ``python3 bench/run.py``).

This file only makes ``bench`` a package so that pytest imports
``bench/test_bench_smoke.py`` as ``bench.test_bench_smoke`` instead of putting
``bench/`` itself on ``sys.path`` -- where ``bench/trace.py`` would shadow the
standard library's ``trace`` for the rest of the test session.  The benchmark's
own modules import each other flat, as scripts run from this directory do.
"""
