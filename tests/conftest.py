"""Fixtures shared by the test modules."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest


class _StubHandler(BaseHTTPRequestHandler):
    replies: list = []
    requests_seen: list = []
    delay_s: float = 0.0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        if self.delay_s:
            time.sleep(self.delay_s)
        reply = self.replies.pop(0) if self.replies else "no more replies"
        payload = json.dumps(
            {"choices": [{"message": {"content": reply}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.replies = []
    _StubHandler.requests_seen = []
    _StubHandler.delay_s = 0.0
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # shutdown() waits up to one poll interval, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _StubHandler
    finally:
        server.shutdown()
        thread.join(timeout=2)
