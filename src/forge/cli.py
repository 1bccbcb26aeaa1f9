"""Operator command line.

Remote commands talk to a running `forge serve` process; the address comes
from --addr or the FORGE_ADDR environment variable (host:port, default
127.0.0.1:7114). Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import base64
import json
import signal
import sys
import threading
from pathlib import Path

import click

from forge import __version__
from forge.errors import ForgeError, QuerySyntaxError
from forge.store import Document
from forge.wire import DEFAULT_PORT, ForgeClient
from forge.wire.protocol import parse_address


def _parse_addr(addr: str | None) -> tuple[str | None, int | None]:
    if not addr:
        return None, None
    try:
        return parse_address(addr)
    except ValueError as exc:
        raise click.UsageError(f"--addr: {exc}") from exc


def _client(ctx: click.Context) -> ForgeClient:
    host, port = _parse_addr(ctx.obj.get("addr"))
    return ForgeClient(host, port)


def _fail(exc: ForgeError) -> None:
    click.echo(f"error [{exc.code}]: {exc.message}", err=True)
    sys.exit(1)


def _run_guarded(fn):
    try:
        fn()
    except QuerySyntaxError as exc:
        # malformed operator input is a usage error, not a domain failure
        click.echo(f"syntax error at byte {exc.offset}: {exc.message} "
                   f"(expected: {', '.join(exc.expected) or 'n/a'})", err=True)
        sys.exit(2)
    except ForgeError as exc:
        _fail(exc)


@click.group()
@click.option("--addr", envvar="FORGE_ADDR", default=None,
              help=f"service address host:port (default 127.0.0.1:{DEFAULT_PORT})")
@click.version_option(__version__)
@click.pass_context
def main(ctx, addr):
    ctx.ensure_object(dict)
    ctx.obj["addr"] = addr


@main.command()
@click.option("--path", required=True, type=click.Path(path_type=Path))
@click.option("--inline-threshold", default=16 * 1024, show_default=True)
def init(path, inline_threshold):
    """Create a new store directory."""
    from forge.engine import Forge

    def go():
        Forge(path, create=True, inline_threshold=inline_threshold).close()
        click.echo(f"initialized store at {path}")

    _run_guarded(go)


@main.command()
@click.option("--path", required=True, type=click.Path(path_type=Path))
@click.option("--addr", "bind", default=f"127.0.0.1:{DEFAULT_PORT}", show_default=True)
@click.option("--fsync/--no-fsync", default=True, show_default=True,
              help="fsync the log on every write")
def serve(path, bind, fsync):
    """Open the store writable and serve it over TCP until interrupted."""
    from forge.engine import Forge
    from forge.wire import ForgeServer

    host, port = _parse_addr(bind)

    def go():
        engine = Forge(path, fsync=fsync)
        server = ForgeServer(engine, host, port)
        click.echo(f"serving {path} on {server.address[0]}:{server.address[1]}")
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *a: stop.set())
        signal.signal(signal.SIGTERM, lambda *a: stop.set())
        server.start()
        stop.wait()
        server.stop()
        engine.close()

    _run_guarded(go)


@main.command()
@click.argument("jsonl", type=click.File("r"))
@click.pass_context
def ingest(ctx, jsonl):
    """Bulk-load documents from JSON lines.

    Each line: {"key": ..., "label"?: ..., "tags"?: {...},
    "sample_b64": ... | "sample_file": ...}. Samples above the store's inline
    threshold are routed to the blob store automatically.
    """

    def go():
        client = _client(ctx)
        threshold = client.info()["inline_threshold"]
        count = 0
        for lineno, line in enumerate(jsonl, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                click.echo(f"line {lineno}: invalid JSON: {exc}", err=True)
                sys.exit(2)
            if ("sample_b64" in record) == ("sample_file" in record):
                click.echo(f"line {lineno}: exactly one of sample_b64/sample_file",
                           err=True)
                sys.exit(2)
            if "sample_b64" in record:
                payload = base64.b64decode(record["sample_b64"])
            else:
                payload = Path(record["sample_file"]).read_bytes()
            if len(payload) > threshold:
                payload = client.put_blob(payload)
            client.put_document(Document(key=record["key"], payload=payload,
                                         label=record.get("label"),
                                         tags=record.get("tags", {})))
            count += 1
        click.echo(f"ingested {count} documents")

    _run_guarded(go)


@main.command()
@click.argument("expr")
@click.option("--limit", default=None, type=int, help="stop after N keys")
@click.option("--count", "count_only", is_flag=True, help="print only the match count")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def query(ctx, expr, limit, count_only, as_json):
    """Scan documents matching a tag query; prints keys one per line."""

    def go():
        client = _client(ctx)
        keys, cursor = [], None
        while True:
            page, cursor = client.scan(expr, cursor, limit=1000)
            keys.extend(page)
            if cursor is None or (limit is not None and len(keys) >= limit):
                break
        if limit is not None:
            keys = keys[:limit]
        if as_json:
            click.echo(json.dumps({"count": len(keys), "keys": keys}, sort_keys=True))
        elif count_only:
            click.echo(str(len(keys)))
        else:
            for key in keys:
                click.echo(key)

    _run_guarded(go)


@main.group()
def view():
    """Dataset views."""


@view.command("define")
@click.argument("name")
@click.argument("expr")
@click.pass_context
def view_define(ctx, name, expr):
    def go():
        defined = _client(ctx).define_view(name, expr)
        click.echo(f"view {defined.view_key} defined")

    _run_guarded(go)


@view.command("list")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def view_list(ctx, as_json):
    def go():
        views = _client(ctx).list_views()
        if as_json:
            click.echo(json.dumps({"views": views}, sort_keys=True))
        else:
            for name in views:
                click.echo(name)

    _run_guarded(go)


@main.group()
def model():
    """Model registry."""


@model.command("register")
@click.argument("key")
@click.argument("spec_file", type=click.File("r"))
@click.pass_context
def model_register(ctx, key, spec_file):
    def go():
        try:
            spec = json.load(spec_file)
        except json.JSONDecodeError as exc:
            click.echo(f"invalid spec JSON: {exc}", err=True)
            sys.exit(2)
        record = _client(ctx).register_model(key, spec)
        click.echo(f"model {record.model_key} registered")

    _run_guarded(go)


@main.group()
def plan():
    """Training plans."""


@plan.command("submit")
@click.argument("plan_file", type=click.File("r"))
@click.pass_context
def plan_submit(ctx, plan_file):
    def go():
        try:
            doc = json.load(plan_file)
        except json.JSONDecodeError as exc:
            click.echo(f"invalid plan JSON at line {exc.lineno}: {exc.msg}", err=True)
            sys.exit(2)
        plan_id = _client(ctx).submit_plan(doc)
        click.echo(f"plan {plan_id} submitted")

    _run_guarded(go)


@plan.command("status")
@click.argument("plan_id")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def plan_status(ctx, plan_id, as_json):
    def go():
        status = _client(ctx).plan_status(plan_id)
        if as_json:
            click.echo(json.dumps(status, sort_keys=True))
        else:
            click.echo(f"plan {status['plan_id']}: {status['status']}")
            for task_id, task_status in sorted(status["tasks"].items()):
                click.echo(f"  {task_id}: {task_status}")

    _run_guarded(go)


@main.group()
def agent():
    """Worker agents."""


@agent.command("run")
@click.option("--id", "agent_id", required=True)
@click.option("--kinds", default="train,user_fn", show_default=True,
              help="comma-separated task kinds this agent accepts")
@click.option("--lease-ttl", default=30_000, show_default=True, help="lease ttl ms")
@click.option("--poll", default=0.5, show_default=True, help="poll interval seconds")
@click.option("--run-for", default=0.0, show_default=True,
              help="exit after this many seconds (0 = forever)")
@click.pass_context
def agent_run(ctx, agent_id, kinds, lease_ttl, poll, run_for):
    """Lease and execute tasks in a loop (built-in train/user_fn handlers)."""
    from forge.handlers import DEFAULT_HANDLERS
    from forge.workflow import run_agent

    def go():
        client = _client(ctx)
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *a: stop.set())
        if run_for > 0:
            threading.Timer(run_for, stop.set).start()
        run_agent(client, agent_id, DEFAULT_HANDLERS,
                  kinds=[k for k in kinds.split(",") if k],
                  poll_interval=poll, lease_ttl_ms=lease_ttl, stop=stop)

    _run_guarded(go)


@main.group()
def master():
    """The scheduling master."""


@master.command("run")
@click.option("--id", "master_id", required=True)
@click.option("--interval", default=0.5, show_default=True)
@click.option("--run-for", default=0.0, show_default=True,
              help="exit after this many seconds (0 = forever)")
@click.pass_context
def master_run(ctx, master_id, interval, run_for):
    from forge.workflow import run_master

    def go():
        client = _client(ctx)
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *a: stop.set())
        if run_for > 0:
            threading.Timer(run_for, stop.set).start()
        run_master(client, master_id, interval=interval, stop=stop)

    _run_guarded(go)


@main.group()
def events():
    """Model event log."""


@events.command("dump")
@click.argument("model_key")
@click.option("--name", default=None, help="filter by event name")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def events_dump(ctx, model_key, name, as_json):
    def go():
        rows = _client(ctx).query_events(model_key, name=name)
        if as_json:
            click.echo(json.dumps(
                {"events": [{"step": e.step, "name": e.name, "value": e.value,
                             "at": e.at} for e in rows]}, sort_keys=True))
        else:
            for e in rows:
                click.echo(f"{e.step}\t{e.name}\t{e.value}")

    _run_guarded(go)


@main.command()
@click.argument("task_id")
@click.pass_context
def replay(ctx, task_id):
    """Reset a dead task to pending with a fresh attempt budget."""

    def go():
        _client(ctx).replay_task(task_id)
        click.echo(f"task {task_id} requeued")

    _run_guarded(go)


if __name__ == "__main__":
    main()
