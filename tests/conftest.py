import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from satotate import bundled, cli, coeffs

_SRC = str(Path(coeffs.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _private_cache_dir(tmp_path_factory, monkeypatch):
    """A run without --cache-dir uses a fresh cache of its own: a test never
    reads the user's ~/.cache/satotate, nor writes tables built offline to it."""
    monkeypatch.setenv(coeffs.CACHE_ENV_VAR, str(tmp_path_factory.mktemp("cache")))


def _seed(cache_dir, n_max):
    """Seed ``cache_dir`` with the default pair through ``cli.resolve_table``,
    as ``fetch --seed-bundled`` does."""
    for label in (cli.RunConfig.f, cli.RunConfig.fp):
        cli.resolve_table(label, n_max, cache_dir)


@pytest.fixture(scope="session")
def seed_cache():
    """The function ``seed_cache(cache_dir, n_max)``: the one way a test
    seeds a cache."""
    return _seed


def _run_python(script, *args, timeout, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="session")
def run_python():
    """The function ``run_python(script, *args, timeout, cwd=None)``: run
    ``script`` with ``args`` in a fresh interpreter that imports the tested
    package, and return the finished process with its text output."""
    return _run_python


def _table_prefix(table, n_max):
    return coeffs.CoefficientTable(table.descriptor, table._values[:n_max])


@pytest.fixture(scope="session")
def table_prefix():
    """The function ``table_prefix(table, n_max)``: the first n_max
    coefficients of ``table`` as a table of their own, checked as any table
    (a prefix of a valid table is valid)."""
    return _table_prefix


@pytest.fixture(scope="session")
def delta_table():
    return bundled.bundled_table("1.12.a.a", 10**4)


@pytest.fixture(scope="session")
def f54_table():
    return bundled.bundled_table("5.4.a.a", 10**4)


@pytest.fixture(scope="session")
def f66_table():
    return bundled.bundled_table("6.6.a.a", 10**4)


class _QExpansionHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        parsed = urlparse(self.path)
        parts = parsed.path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "q_expansion":
            self.send_error(404)
            return
        label = parts[1]
        n = int(parse_qs(parsed.query).get("n", ["10"])[0])
        self.server.hits.append((label, n))
        try:
            table = bundled.bundled_table(label, n)
        except Exception:
            self.send_error(404)
            return
        body = ("[" + ", ".join(str(c) for c in table.raw) + "]").encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _PayloadHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.hits.append(self.path)
        payload = self.server.payload
        body = payload if isinstance(payload, bytes) else payload.encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    server.hits = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


@pytest.fixture()
def coeff_server():
    """Local HTTP server implementing the q-expansion URL template."""
    yield from _serve(_QExpansionHandler)


@pytest.fixture()
def payload_server():
    """Local HTTP server answering every GET with ``server.payload`` (text,
    or bytes sent as they are)."""
    yield from _serve(_PayloadHandler)
