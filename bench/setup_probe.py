"""Set-up time of a fresh process: ``import bcode``, then, when a code is
given, load it and build the decoder config the simulate command builds.

    python3 setup_probe.py [CODE q seed]

Prints the measured seconds and the reference-host factor (see hostprobe).
Only the standard library is imported before the clock starts, so numpy's
import is part of the measurement.
"""

import statistics
import sys
import time

from hostprobe import probe_ms, speed_factor

before = statistics.median(probe_ms() for _ in range(3))
start = time.perf_counter()
import bcode  # noqa: E402

if len(sys.argv) == 4:
    path, q, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    code = bcode.load(path).matrix
    profile = bcode.dirichlet_profiles(0.1, code.n, 10, seed)
    bcode.DecoderConfig(
        code=code,
        confusions=bcode.synth_confusion(code, profile),
        attack_prior=0.5,
        success_rate=0.99,
        count_prior=bcode.uniform_count_prior(0, q),
        num_classes=10,
    )
elapsed = time.perf_counter() - start
after = statistics.median(probe_ms() for _ in range(3))
print(elapsed, speed_factor(before, after))
