"""Fixtures shared by the test modules."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _StubHandler(BaseHTTPRequestHandler):
    replies: list = []
    requests_seen: list = []
    delay_s: float = 0.0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        # this test's list: a delayed handler may outlive the test, and the
        # next test's fixture gives the class new lists
        replies = type(self).replies
        type(self).requests_seen.append(body)
        if self.delay_s:
            time.sleep(self.delay_s)
        reply = replies.pop(0) if replies else "no more replies"
        payload = json.dumps(
            {"choices": [{"message": {"content": reply}}]}
        ).encode()
        try:
            self.send_response(200)
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
    _StubHandler.delay_s = 0.0
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
