"""Wire-to-answer benchmark for the DN-Hunter system (see README.md).

Run it from the repository root::

    python3 e2ebench/run.py --workload adsl_day --seed 1 --seconds 36 --trace 0
"""
