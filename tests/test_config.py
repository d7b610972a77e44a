import json

import numpy as np
import pytest

import instances
from odg import ContrastSystem, rank_of
from odg.cli import main


def nearly_deficient_system():
    # second contrast is a 3e-4 perturbation of the first, leaving a trailing
    # Gram eigenvalue around 3e-8 of the largest: counted at the 1e-9 default
    # tolerance, dropped at 1e-6
    base = np.array([-1.0, 1.0, 0.0])
    bumped = base + np.array([1.5e-4, 1.5e-4, -3e-4])
    return ContrastSystem(np.column_stack([base, bumped]))


def test_rank_respects_env_tolerance():
    system = nearly_deficient_system()
    assert rank_of(system) == 2  # tiny eigenvalue still counted at 1e-9
    assert rank_of(system, 1e-6) == 1


def test_cli_rank_tol_flag(tmp_path, capsys):
    q = tmp_path / "near.csv"
    q.write_text(
        "\n".join(",".join(repr(float(x)) for x in row) for row in nearly_deficient_system().q)
    )
    w = tmp_path / "w.csv"
    w.write_text("0.25,0.5,0.25")
    assert main(["eval", "--q", str(q), "--w", str(w), "--p", "0", "--rank-tol", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"]["rank"] == 1
    assert main(["eval", "--q", str(q), "--w", str(w), "--p", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"]["rank"] == 2
