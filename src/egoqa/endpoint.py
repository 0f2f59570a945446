"""Chat-completion endpoint clients.

HttpChatEndpoint speaks the common chat-completions wire protocol over
standard-library keep-alive connections and retries transport failures
internally; parse-level retries (resubmitting a prompt whose completion
would not parse) belong to the generation layer.
MockChatEndpoint replays a fixture keyed by prompt hash so pipelines can be
tested hermetically and deterministically.
"""
from __future__ import annotations

import hashlib
import logging
import math
import select
import threading
import urllib.parse
from base64 import b64encode
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Protocol

from .core import ServiceError, ValidationError
from .jsonl_io import DECODER, dumps_canonical

log = logging.getLogger(__name__)


class EndpointUnavailable(ServiceError):
    """A chat or embedding endpoint failed after transport retries."""


@dataclass(frozen=True)
class EndpointConfig:
    """Connection and sampling parameters for a chat endpoint.

    Sampling defaults to temperature 0 so mocked and scripted runs are
    reproducible; real runs set their own value and it is recorded in every
    output's metadata.
    """

    base_url: str = ""
    model: str = "mock"
    temperature: float = 0.0
    max_tokens: int = 128
    request_timeout_s: float = 30.0
    max_retries: int = 2
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValidationError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not math.isfinite(self.temperature):
            raise ValidationError(f"temperature must be finite, got {self.temperature}")
        if not (math.isfinite(self.request_timeout_s) and self.request_timeout_s > 0):
            raise ValidationError(
                f"request_timeout_s must be finite and > 0, got {self.request_timeout_s}"
            )


class ChatEndpoint(Protocol):
    def complete(self, prompt: str) -> str:
        """Return the raw completion text for one prompt."""


class HttpClient:
    """Transport shared by the HTTP clients: JSON POSTs below config.base_url.

    Idle keep-alive connections sit on one stack the client owns: a request
    pops one (reopened, without spending an attempt, if the server dropped
    it while idle) or opens one, and pushes it back once its reply decodes,
    so no more are open than requests in flight; close() closes the idle
    ones. Proxies come from the environment (HTTP(S)_PROXY, NO_PROXY), read
    once here; HTTPS verifies certificates against
    ssl.create_default_context(). Transport failures, non-2xx replies and
    malformed envelopes are retried at once, up to config.max_retries times,
    then raised as EndpointUnavailable; a failed attempt closes its connection.
    The HTTP and TLS modules (http.client, ssl, urllib.request) are imported
    by the constructor, so a command that builds no client never loads them.
    """

    service: str  # names the service in logs and errors

    def __init__(self, config: EndpointConfig, api_key: str | None = None):
        import http.client
        import ssl
        import urllib.request

        url = urllib.parse.urlsplit(config.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(
                f"{type(self).__name__}: base_url must be an http(s) URL, "
                f"got {config.base_url!r}"
            )
        self.config = config
        # Its pop and append are atomic, so the threads share it without a lock.
        self._idle: list[http.client.HTTPConnection] = []
        self._headers = {"Content-Type": "application/json", "User-Agent": "egoqa"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        if url.scheme == "https":
            self._open = partial(
                http.client.HTTPSConnection, context=ssl.create_default_context()
            )
        else:
            self._open = http.client.HTTPConnection
        self._address = (url.hostname, _port(url))
        self._tunnel = None
        # Request targets are <prefix><route>: origin-form paths, or absolute
        # URLs when plain HTTP goes through a proxy.
        self._prefix = url.path.rstrip("/") + "/"
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if via.scheme != "http" or not via.hostname:
                raise ValidationError(f"unsupported {url.scheme} proxy {proxy!r}")
            auth = {}
            if via.username is not None:
                user = urllib.parse.unquote(via.username)
                password = urllib.parse.unquote(via.password or "")
                token = b64encode(f"{user}:{password}".encode()).decode()
                auth["Proxy-Authorization"] = f"Basic {token}"
            if url.scheme == "http":
                self._headers.update(auth)
                self._prefix = config.base_url.rstrip("/") + "/"
            else:
                self._tunnel = (*self._address, auth)
            self._address = (via.hostname, _port(via))

    def close(self) -> None:
        """Close and drop every idle connection; a later request opens a new one."""
        while self._idle:
            self._idle.pop().close()

    def _connection(self) -> http.client.HTTPConnection:
        """The most recently pushed idle connection, closed first if the
        server dropped it, or a new one."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._open(*self._address, timeout=self.config.request_timeout_s)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            return conn
        if conn.sock is not None and _readable(conn.sock):
            # An idle keep-alive socket that reads as ready holds EOF or
            # stray bytes: the server is done with it. http.client reconnects
            # on the next request.
            conn.close()
        return conn

    def _post_json(self, route: str, body: Mapping[str, Any], decode: Callable[[Any], Any]):
        """POST canonical JSON body to {base_url}/{route}; return decode(reply).

        decode raises KeyError, IndexError, TypeError or ValueError on an
        envelope it cannot use, which counts as a failed attempt, as does a
        reply that is not UTF-8, repeats a key or nests too deep to decode.
        """
        import http.client

        target = self._prefix + route
        payload = dumps_canonical(body).encode("utf-8")
        attempts = self.config.max_retries + 1
        last_error = ""
        for attempt in range(attempts):
            conn = self._connection()
            try:
                conn.request("POST", target, payload, self._headers)
                with conn.getresponse() as response:
                    data = response.read()
                if not 200 <= response.status < 300:
                    raise http.client.HTTPException(
                        f"HTTP {response.status} {response.reason} from {route}"
                    )
                reply = decode(DECODER.decode(data.decode("utf-8")))
            except (
                OSError, http.client.HTTPException, KeyError, IndexError, TypeError, ValueError,
                RecursionError,
            ) as exc:
                conn.close()
                last_error = str(exc)
                log.warning(
                    "%s request failed (attempt %d/%d): %s",
                    self.service,
                    attempt + 1,
                    attempts,
                    last_error,
                )
            else:
                self._idle.append(conn)
                return reply
        raise EndpointUnavailable(
            f"{self.service} endpoint failed after {attempts} attempts: {last_error}"
        )


def _port(url: urllib.parse.SplitResult) -> int | None:
    try:
        return url.port
    except ValueError:
        raise ValidationError(f"bad port in URL {url.geturl()!r}") from None


def _readable(sock) -> bool:
    """Whether sock has EOF or data waiting, without blocking (poll where the
    platform has it, so descriptors past select's limit work)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _chat_content(reply) -> str:
    content = reply["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"completion content is {type(content).__name__}, not text")
    return content


class HttpChatEndpoint(HttpClient):
    """POSTs prompts to {base_url}/chat/completions."""

    service = "chat"

    def complete(self, prompt: str) -> str:
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        return self._post_json("chat/completions", body, _chat_content)


def prompt_digest(prompt: str) -> str:
    """Fixture key for a prompt: hex sha256 of its UTF-8 bytes."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class MockChatEndpoint:
    """In-process endpoint replaying completions from a fixture mapping.

    The fixture maps prompt_digest(prompt) to either a completion string or
    a non-empty list of strings consumed one per call (repeating the last
    once exhausted), which lets tests script a malformed first attempt
    followed by a good retry. A "*" entry, if present, answers unknown
    prompts. Any other value raises ValidationError here, before any call.
    """

    def __init__(self, completions: Mapping[str, str | list[str]]):
        for key, entry in completions.items():
            if not isinstance(entry, str) and not (
                isinstance(entry, list) and entry and all(isinstance(c, str) for c in entry)
            ):
                raise ValidationError(
                    f"mock fixture entry {key!r} must be a string or a non-empty "
                    f"list of strings, got {type(entry).__name__}"
                )
        self._completions = dict(completions)
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        key = prompt_digest(prompt)
        with self._lock:
            if key not in self._completions:
                if "*" in self._completions:
                    key = "*"
                else:
                    raise EndpointUnavailable(
                        f"mock fixture has no completion for prompt hash {key}"
                    )
            entry = self._completions[key]
            if isinstance(entry, str):
                return entry
            i = self._cursor.get(key, 0)
            self._cursor[key] = i + 1
            return entry[min(i, len(entry) - 1)]

    def close(self) -> None:
        """Nothing to close; a command closes every endpoint it builds."""
