import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

for path in (BENCH_DIR, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
