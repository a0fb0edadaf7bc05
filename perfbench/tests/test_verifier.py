"""The answer checker trips on a planted wrong answer."""

import json
import subprocess
import sys
from pathlib import Path

from perfbench import whynot_cold
from perfbench.common import Verifier, unsharded_engine
from perfbench.yardstick import Yardstick

RUN = Path(__file__).resolve().parents[1] / "run.py"


def test_planted_wrong_answer_is_caught():
    engine = unsharded_engine([], Yardstick())
    dataset = engine.dataset
    question = whynot_cold.generate(2, 1)[0]
    answer = engine.answer(question, method="advanced")
    assert Verifier(dataset).whynot(question, answer)
    planted = Verifier(dataset, plant_wrong=True)
    assert not planted.whynot(question, answer)
    assert planted.wrong == 1 and planted.problems
    # only the first answer is corrupted
    assert planted.whynot(question, answer)


def test_penalty_disagreement_is_caught():
    engine = unsharded_engine([], Yardstick())
    dataset = engine.dataset
    questions = whynot_cold.generate(2, 10)
    answers = [engine.answer(q, method="kcr") for q in questions]
    penalties = {a.refined.penalty for a in answers}
    assert len(penalties) > 1
    first, other = answers[0], next(
        a for a in answers if a.refined.penalty != answers[0].refined.penalty
    )
    assert not Verifier(dataset).same_penalty(questions[0], first, other)


def test_run_exits_nonzero_on_a_wrong_answer():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "merchant-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--plant-wrong-answer"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in RUN.parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whynot-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
