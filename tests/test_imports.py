"""The package imports and links with only its declared dependencies.

``networkx`` is a test extra (the dense assignment reference solver and
the synthetic road networks use it), so ``import repro`` and a
``LinkEngine.link`` must work without it.  The check runs in a fresh
interpreter, because this one has already imported everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["networkx"] = None  # any import of it now raises

    import numpy as np

    import repro
    from repro.config import FTLConfig
    from repro.core.database import TrajectoryDatabase
    from repro.core.engine import LinkEngine, LinkOptions
    from repro.core.models import CompatibilityModel
    from repro.core.trajectory import Trajectory

    rng = np.random.default_rng(5)
    p_db, q_db = TrajectoryDatabase(name="P"), TrajectoryDatabase(name="Q")
    for agent in range(12):
        ts = np.sort(rng.uniform(0.0, 86400.0, size=60))
        xs = np.cumsum(rng.normal(0.0, 300.0, size=60))
        ys = np.cumsum(rng.normal(0.0, 300.0, size=60))
        half = rng.random(60) < 0.5
        p_db.add(Trajectory(ts[half], xs[half], ys[half], traj_id=f"P{agent}"))
        q_db.add(Trajectory(ts[~half], xs[~half], ys[~half], traj_id=f"Q{agent}"))
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([p_db, q_db], config)
    ma = CompatibilityModel.fit_acceptance([p_db, q_db], config, rng)
    options = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
    result = LinkEngine(mr, ma, options=options).link(p_db["P0"], list(q_db))
    assert len(result) > 0, result
    assert "networkx" not in {m.split(".")[0] for m in sys.modules
                              if sys.modules[m] is not None}
    print("linked", len(result), "with", repro.__name__)
    """
)


def test_import_and_link_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("linked")
