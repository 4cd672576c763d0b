"""Rewrite src/splitsea/law_blocks.npz from the reference law-block builder.

    python3 tools/regen_law_blocks.py

Builds the decay point and every desk-range law block of the orders the
Airy contour evaluator certifies (m = 1, 2, 3) with ``_build_laws`` of
tools/law_builder.py, which raises rather than return a block it cannot
certify.  The file is checked by the package's own loader before it
replaces the old one, and its zip entries carry a fixed timestamp, so the
same blocks give the same bytes.  It runs with one BLAS thread unless
OPENBLAS_NUM_THREADS says otherwise; that takes about 2.5 s of CPU.
"""

from __future__ import annotations

import io
import os
import sys
import zipfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy starts BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from law_builder import _build_laws  # noqa: E402
from splitsea import airy  # noqa: E402

ORDERS = (1, 2, 3)


def main():
    arrays = {"floor": np.float64(airy._DESK_FLOOR),
              "panels": np.int64(airy._LAW_PANELS),
              "degree": np.int64(airy._CHEB_DEGREE),
              "orders": np.array(ORDERS, dtype=np.int64)}
    decays = []
    for m in ORDERS:
        decay, arrays[f"m{m}"] = _build_laws(m)
        decays.append(decay)
    arrays["decay"] = np.array(decays)
    target = ROOT / "src" / "splitsea" / airy._LAW_FILE
    scratch = target.with_suffix(".tmp")
    with zipfile.ZipFile(scratch, "w") as zf:
        for name, value in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(value), allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy"), buf.getvalue())
    airy._load_laws(scratch)
    scratch.replace(target)
    for m, decay in zip(ORDERS, decays):
        print(f"m={m}: {arrays[f'm{m}'].shape[0]} blocks, decay point {decay:g}")
    print(f"wrote {target.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
