"""The README's CLI examples, run on the configs the README itself spells
out, so that the docs cannot drift from the code.  A command's exit code is
0 unless the README says otherwise."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from hrex.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SHELL = "\n".join(re.findall(r"```sh\n(.*?)```", README, re.S))


def commands(subcommand):
    """(command, comment) of each README shell line that runs `hrex subcommand`."""
    return [(command.strip(), comment.strip()) for command, _, comment in
            (line.partition("#") for line in SHELL.splitlines() if line.startswith("hrex %s " % subcommand))]


def heredoc(name):
    """The text a README block writes to `name` with cat > name <<'EOF'."""
    (body,) = re.findall(r"cat > %s <<'EOF'\n(.*?)\nEOF\n" % re.escape(name), SHELL, re.S)
    return body


def run(command, capsys):
    argv = shlex.split(command)
    assert argv[0] == "hrex"
    code = main(argv[1:])
    return code, capsys.readouterr().out


@pytest.fixture(autouse=True)
def in_scratch_dir(tmp_path, monkeypatch):
    # the examples name relative files, and HREX_OUT would override their --out
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HREX_OUT", raising=False)


def test_hlambda_examples(capsys):
    (dependent, _), (independent, comment) = commands("hlambda")
    assert run(dependent, capsys)[0] == 0
    assert comment == "independence branch"
    code, out = run(independent, capsys)
    assert code == 0 and float(out) == math.exp(-2.0)


def test_theta_example(capsys):
    Path("spec.json").write_text(heredoc("spec.json"))
    (command, _), = commands("theta")
    code, out = run(command, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 10**6 and 0.0 < payload["value"] <= 1.0


def test_converge_example(capsys):
    Path("converge.json").write_text(heredoc("converge.json"))
    (command, _), = commands("converge")
    code, out = run(command, capsys)
    assert code == 0 and json.loads(out)["verdict"] == "decreasing"
    assert {f.name for f in Path("out").iterdir()} == {"report.csv", "report.json", "manifest.json"}


def test_check_example(capsys):
    Path("check.json").write_text(heredoc("check.json"))
    (command, comment), = commands("check")
    expected = int(re.match(r"exits (\d+)", comment).group(1))
    assert expected == 1
    assert run(command, capsys)[0] == expected
    assert {f.name for f in Path("check").iterdir()} == {"conditions.csv", "conditions.json", "manifest.json"}


def test_check_on_the_stock_models(capsys):
    # the README's loop writes each model into its template config; only the
    # constant-correlation counterexample exits 1
    (loop,) = re.findall(r"for model in (.*?)\ndo\n(.*?)\ndone", SHELL, re.S)
    models = [json.loads(m) for m in re.findall(r"'(.*?)'", loop[0])]
    (template,) = re.findall(r"echo \"(.*?)\" > stock.json", loop[1])
    assert [m["name"] for m in models] == ["iid", "geometric", "constant", "hr"]
    for model in models:
        Path("stock.json").write_text(template.replace("\\\"", "\"").replace("$model", json.dumps(model)))
        code, out = run("hrex check --config stock.json", capsys)
        assert code == (1 if model["name"] == "constant" else 0)
        assert [row["n"] for row in json.loads(out)["rows"]] == [100, 1000, 10000, 100000]


def test_lemma1_example(capsys):
    (command, config), = commands("lemma1")
    Path("lemma1.json").write_text(config)
    code, out = run(command, capsys)
    assert code == 0
    assert json.loads(out)["support_size"] == 3 ** (3 * 2)
