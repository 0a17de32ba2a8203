"""Fixtures shared by the test modules."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _StubHandler(BaseHTTPRequestHandler):
    """A chat-completions endpoint that answers every request with ``status``.

    A 200 carries the next of ``replies``; a ``location`` is sent as the
    Location header. Each POST body goes to ``requests_seen``, and each
    request's (method, path, Authorization header) to ``calls``.
    """

    replies: list = []
    requests_seen: list = []
    calls: list = []
    delay_s: float = 0.0
    status: int = 200
    location: str | None = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        self._answer()

    def do_GET(self):
        self._answer()

    def _answer(self):
        # this test's lists: a delayed handler may outlive the test, and the
        # next test's fixture gives the class new lists
        cls = type(self)
        replies = cls.replies
        cls.calls.append((self.command, self.path, self.headers.get("Authorization")))
        if self.delay_s:
            time.sleep(self.delay_s)
        reply = replies.pop(0) if replies else "no more replies"
        payload = json.dumps(
            {"choices": [{"message": {"content": reply}}]}
        ).encode()
        try:
            self.send_response(cls.status)
            if cls.location is not None:
                self.send_header("Location", cls.location)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:
            pass  # the client timed out and closed the connection

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.replies = []
    _StubHandler.requests_seen = []
    _StubHandler.calls = []
    _StubHandler.delay_s = 0.0
    _StubHandler.status = 200
    _StubHandler.location = None
    # each request gets its own daemon thread, so shutdown() need not wait
    # for a handler still sleeping on a reply the client gave up on, and
    # server_close() does not join it
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.daemon_threads = True
    # shutdown() waits up to one poll interval, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _StubHandler
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
