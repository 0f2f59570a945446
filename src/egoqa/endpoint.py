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
import http.client
import json
import logging
import select
import ssl
import threading
import urllib.parse
import urllib.request
from base64 import b64encode
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Protocol

from .core import ServiceError, ValidationError

log = logging.getLogger(__name__)


class EndpointUnavailable(ServiceError):
    """Endpoint could not produce a completion after transport retries."""


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


class ChatEndpoint(Protocol):
    def complete(self, prompt: str) -> str:
        """Return the raw completion text for one prompt."""


class HttpClient:
    """Transport shared by the HTTP clients: JSON POSTs below config.base_url.

    Each thread keeps one keep-alive connection, reopened without spending
    an attempt when the server closed it while idle. Proxies come from the
    environment (HTTP(S)_PROXY, NO_PROXY), read once here; HTTPS verifies
    certificates against ssl.create_default_context(). Transport failures,
    non-2xx replies and malformed envelopes are retried at once, up to
    config.max_retries times, then raised as `unavailable`; every failed
    attempt closes the connection.
    """

    unavailable: type[ServiceError]  # raised when every attempt failed
    service: str  # names the service in logs and errors

    def __init__(self, config: EndpointConfig, api_key: str | None = None):
        if not config.base_url:
            raise ValidationError(f"{type(self).__name__} requires a base_url")
        url = urllib.parse.urlsplit(config.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(
                f"{type(self).__name__}: base_url must be an http(s) URL, "
                f"got {config.base_url!r}"
            )
        self.config = config
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
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, closed first if the server dropped it."""
        held = getattr(self._local, "held", None)
        if held is None:
            conn = self._open(*self._address, timeout=self.config.request_timeout_s)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            held = self._local.held = _ThreadConnection(conn)
        elif held.conn.sock is not None and _readable(held.conn.sock):
            # An idle keep-alive socket that reads as ready holds EOF or
            # stray bytes: the server is done with it. http.client reconnects
            # on the next request.
            held.conn.close()
        return held.conn

    def _post_json(self, route: str, body: Mapping[str, Any], decode: Callable[[Any], Any]):
        """POST body to {base_url}/{route}; return decode(parsed JSON reply).

        decode raises KeyError, IndexError, TypeError or ValueError on an
        envelope it cannot use, which counts as a failed attempt.
        """
        target = self._prefix + route
        payload = json.dumps(body).encode("utf-8")
        attempts = self.config.max_retries + 1
        # Kept as text: holding the exception would tie this frame, and with
        # it the connection, into a reference cycle.
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
                return decode(json.loads(data))
            except (
                OSError, http.client.HTTPException, KeyError, IndexError, TypeError, ValueError
            ) as exc:
                conn.close()
                last_error = str(exc)
                log.warning(
                    "%s request failed (attempt %d/%d): %s",
                    self.service,
                    attempt + 1,
                    attempts,
                    exc,
                )
        raise self.unavailable(
            f"{self.service} endpoint failed after {attempts} attempts: {last_error}"
        )


class _ThreadConnection:
    """Owns one thread's connection: the thread-local slot holding it is
    released when the thread ends or the client is dropped, and the
    connection is closed then."""

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn

    def __del__(self):
        self.conn.close()


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

    unavailable = EndpointUnavailable
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
    a list of strings consumed one per call (repeating the last once
    exhausted), which lets tests script a malformed first attempt followed
    by a good retry. A "*" entry, if present, answers unknown prompts.
    """

    def __init__(self, completions: Mapping[str, object]):
        self._completions = dict(completions)
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt: str) -> str:
        key = prompt_digest(prompt)
        with self._lock:
            self.calls += 1
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
            seq = list(entry)
            if not seq:
                raise EndpointUnavailable(f"mock fixture entry for {key} is empty")
            i = self._cursor.get(key, 0)
            self._cursor[key] = i + 1
            return str(seq[min(i, len(seq) - 1)])
