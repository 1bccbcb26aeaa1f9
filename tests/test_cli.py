"""The operator command line, run with click's test runner against a store
it initialised and an in-thread server it reaches through --addr."""

import base64
import gc
import inspect
import json
import os
import random
import select
import signal
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from forge.cli import main
from forge.clock import FakeClock
from forge.engine import Forge
from forge.handlers import encode_sample
from forge.store import BlobPointer, Document
from forge.wire import ForgeClient, ForgeServer

MLP = {"input_dims": [3], "layers": [{"name": "out", "kind": "dense", "out_units": 2}]}


@pytest.fixture
def served(tmp_path):
    """(engine, addr): an in-thread server over a store made by ``forge
    init``, and its address."""
    path = tmp_path / "store"
    result = CliRunner().invoke(main, ["init", "--path", str(path)])
    assert result.exit_code == 0 and f"initialized store at {path}" in result.output
    engine = Forge(path, clock=FakeClock(), fsync=False)
    server = ForgeServer(engine, port=0)
    server.start()
    yield engine, "{}:{}".format(*server.address)
    server.stop()
    engine.close()


@pytest.fixture
def forge(served):
    """(run, engine): ``run(*args, input=None)`` invokes the command line
    with --addr set to the served store."""
    engine, addr = served
    runner = CliRunner()

    def run(*args, input=None):
        return runner.invoke(main, ["--addr", addr, *args], input=input)

    yield run, engine


def _cli_process(*args) -> subprocess.Popen:
    """``forge *args`` as its own process, importing this checkout's sources."""
    src = str(Path(inspect.getfile(Forge)).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "forge.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)


def _run_cli(*args) -> tuple[int, str]:
    """(exit status, stderr) of ``forge *args`` run to its end as its own
    process; killed if it runs for more than a minute."""
    proc = _cli_process(*args)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, err


def test_ingest_then_query(forge, tmp_path):
    run, engine = forge
    big = random.Random(1).randbytes(engine.store.inline_threshold + 1)
    (tmp_path / "big.bin").write_bytes(big)
    lines = [json.dumps({"key": f"d{i}", "sample_b64": base64.b64encode(b"s%d" % i).decode(),
                         "tags": {"split": "train" if i < 3 else "test"}}) for i in range(5)]
    lines.append(json.dumps({"key": "big", "sample_file": str(tmp_path / "big.bin"),
                             "label": "L", "tags": {"split": "train"}}))
    result = run("ingest", "-", input="\n".join(lines) + "\n")
    assert result.exit_code == 0, result.output
    assert result.stdout == "ingested 6 documents\n"
    doc = engine.get_document("big")  # over the inline threshold: a blob upload
    assert isinstance(doc.payload, BlobPointer) and doc.label == "L"
    assert engine.get_blob(doc.payload) == big
    assert engine.get_document("d1").payload == b"s1"

    assert run("query", 'split = "train"', "--count").stdout == "4\n"
    result = run("query", 'split = "train"', "--json")
    assert json.loads(result.stdout) == {"count": 4, "keys": ["big", "d0", "d1", "d2"]}
    assert run("query", 'split = "train"', "--limit", "2").stdout == "big\nd0\n"
    result = run("query", "split =")
    assert result.exit_code == 2 and "syntax error" in result.output


def test_ingest_rejects_a_line_without_one_sample(forge):
    run, engine = forge
    result = run("ingest", "-", input=json.dumps({"key": "k"}) + "\n")
    assert result.exit_code == 2 and "exactly one of" in result.output
    assert engine.scan("")[0] == []


def test_views_models_events_plans_replay(forge, tmp_path):
    run, engine = forge
    result = run("view", "define", "train", 'split = "train"')
    assert (result.exit_code, result.stdout) == (0, "view train defined\n")
    assert json.loads(run("view", "list", "--json").stdout) == {"views": ["train"]}
    assert run("view", "list").stdout == "train\n"

    (tmp_path / "spec.json").write_text(json.dumps(MLP))
    result = run("model", "register", "m", str(tmp_path / "spec.json"))
    assert (result.exit_code, result.stdout) == (0, "model m registered\n")
    assert engine.get_model("m").spec["input_dims"] == [3]
    (tmp_path / "bad.json").write_text("{")
    assert run("model", "register", "m2", str(tmp_path / "bad.json")).exit_code == 2

    engine.record_event("m", 1, "loss", 0.5)
    engine.record_event("m", 2, "acc", 0.25)
    result = run("events", "dump", "m", "--json")
    assert [(e["step"], e["name"], e["value"]) for e in json.loads(result.stdout)["events"]] \
        == [(1, "loss", 0.5), (2, "acc", 0.25)]
    assert run("events", "dump", "m", "--name", "acc").stdout == "2\tacc\t0.25\n"

    plan = {"plan_id": "p", "tasks": [{"task_id": "p-a", "kind": "user_fn"},
                                      {"task_id": "p-b", "kind": "user_fn",
                                       "depends_on": ["p-a"]}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    result = run("plan", "submit", str(tmp_path / "plan.json"))
    assert (result.exit_code, result.stdout) == (0, "plan p submitted\n")
    result = run("plan", "status", "p", "--json")
    assert json.loads(result.stdout) == engine.plan_status("p") == {
        "plan_id": "p", "status": "running", "tasks": {"p-a": "pending", "p-b": "pending"}}
    assert run("plan", "status", "p").stdout == "plan p: running\n  p-a: pending\n  p-b: pending\n"
    assert run("plan", "status", "nope").exit_code == 1

    result = run("replay", "p-a")  # pending, not dead
    assert result.exit_code == 1 and "error [invalid_argument]" in result.output
    assert engine.get_task("p-a").replays == 0


def test_remote_commands_close_their_connection(forge, tmp_path):
    """With ResourceWarning an error, a socket left to the garbage collector
    raises in its finalizer, which reaches ``sys.unraisablehook``."""
    run, engine = forge
    (tmp_path / "spec.json").write_text(json.dumps(MLP))
    (tmp_path / "plan.json").write_text(json.dumps(
        {"plan_id": "p", "tasks": [{"task_id": "p-a", "kind": "user_fn"}]}))
    sample = json.dumps({"key": "d0", "sample_b64": base64.b64encode(b"s").decode()})
    commands = [
        (("ingest", "-"), sample + "\n"), (("query", "", "--count"), None),
        (("view", "define", "v", 'split = "x"'), None), (("view", "list"), None),
        (("model", "register", "m", str(tmp_path / "spec.json")), None),
        (("events", "dump", "m"), None), (("plan", "submit", str(tmp_path / "plan.json")), None),
        (("plan", "status", "p"), None), (("replay", "p-a"), None),
    ]
    unraisable = []
    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for args, stdin in commands:
                result = run(*args, input=stdin)
                assert result.exit_code in (0, 1), result.output
                gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [f"{u.exc_type.__name__}: {u.exc_value}" for u in unraisable] == []


@pytest.mark.parametrize("expr", ["x = ²", "x = ١٢"])
def test_query_with_unicode_digits_is_a_syntax_error(forge, expr):
    run, _ = forge
    result = run("query", expr)
    assert result.exit_code == 2 and "syntax error at byte 4" in result.output


def test_query_with_a_double_equals_is_a_syntax_error(forge):
    run, _ = forge
    result = run("query", "a == 1")
    assert result.exit_code == 2 and "syntax error at byte 2" in result.output


def test_serve_stops_on_sigterm_and_releases_the_store(tmp_path):
    """``forge serve`` as its own process: a blob and the document that points
    to it go in over the wire, SIGTERM ends it with status 0, and the store
    then opens in this process with both readable."""
    path = tmp_path / "store"
    Forge(path, create=True).close()
    data = random.Random(3).randbytes(40_000)
    proc = _cli_process("serve", "--path", str(path), "--addr", "127.0.0.1:0", "--fsync")
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no address line"
        line = proc.stdout.readline()
        assert line.startswith(f"serving {path} on 127.0.0.1:"), line
        host, port = line.rsplit(" ", 1)[1].split(":")
        client = ForgeClient(host, int(port))
        try:
            ptr = client.put_blob(data)
            client.put_document(Document(key="d", payload=ptr))
        finally:
            client.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    engine = Forge(path, clock=FakeClock(), fsync=False)
    try:
        assert engine.get_document("d").payload == ptr
        assert engine.get_blob(ptr) == data
        assert engine.store.blobs.read_chunk(ptr.blob_id, 0) == zlib.compress(data, 0)
    finally:
        engine.close()


def test_master_run_fires_a_stream_trigger(served):
    engine, addr = served
    engine.register_model("m", MLP)
    engine.define_view("live", 'dataset = "live"')
    engine.attach_stream("live", 2, 1_000, "m", "out")
    for i in range(2):
        engine.put_document(Document(key=f"s{i}", payload=b"x", tags={"dataset": "live"}))
    assert engine.list_tasks() == []
    status, err = _run_cli("--addr", addr, "master", "run", "--id", "m",
                           "--run-for", "1", "--interval", "0.05")
    assert status == 0, err
    [task] = engine.list_tasks()
    assert (task.kind, task.input_dataset, task.model_key) == ("train", "live", "m")
    assert task.params == {"from_key": "", "upto_key": "s1"}
    assert engine.datasets.get_controller("live").watermark == "s1"


def test_agent_run_trains_a_queued_task(served):
    engine, addr = served
    engine.register_model("m", MLP)
    for i in range(4):
        engine.put_document(Document(key=f"s{i}", payload=encode_sample(np.full(3, i / 4)),
                                     label="0.5,-0.5", tags={"dataset": "train"}))
    engine.define_view("train", 'dataset = "train"')
    engine.submit_task(kind="train", task_id="t", input_dataset="train", model_key="m")
    status, err = _run_cli("--addr", addr, "agent", "run", "--id", "a", "--kinds", "train",
                           "--run-for", "2", "--poll", "0.05")
    assert status == 0, err
    task = engine.get_task("t")
    assert (task.status, task.attempts, task.last_error) == ("completed", 1, None)
    assert len(engine.list_versions("m")) == 1


@pytest.mark.parametrize("kinds,message", [
    ("usr_fn", "unknown task kind 'usr_fn'"),
    ("", "kinds must name at least one task kind"),
])
def test_agent_run_refuses_kinds_no_task_can_have(served, kinds, message):
    engine, addr = served
    engine.submit_task(kind="user_fn", task_id="t")
    status, err = _run_cli("--addr", addr, "agent", "run", "--id", "a", "--kinds", kinds)
    assert status == 1 and f"error [invalid_argument]: {message}" in err, err
    assert engine.get_task("t").status == "pending"
