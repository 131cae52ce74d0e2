"""OAuth2 authorization-code flow between users, services, and the engine.

§2.2: "Many triggers/actions need to authenticate the user.  This is done
using the OAuth2 framework.  The user will be directed to the
authentication page that is usually hosted by service providers and asked
for her credentials.  An access token will be generated and cached at
IFTTT to make future applet execution fully automated."

The :class:`OAuthAuthority` plays the service-provider side (credential
check, authorization codes, token issuance); the engine calls it during
service connection and caches the resulting token per (user, service).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Set

_code_counter = itertools.count(1)


class OAuthError(RuntimeError):
    """Authorization failure (bad credentials, bad/reused code)."""


@dataclass(frozen=True)
class OAuthGrant:
    """A completed authorization: an access token bound to (user, service)."""

    user: str
    service_slug: str
    access_token: str


class OAuthAuthority:
    """The service provider's authorization server.

    One authority exists per service; user credentials are provisioned
    with :meth:`register_user`.  The flow is the standard three steps:
    ``authorize`` (credentials -> single-use code), ``exchange`` (code ->
    access token), and per-request bearer validation by the service
    (tokens are pushed into the service's valid set by the engine's
    connection flow).
    """

    def __init__(self, service_slug: str) -> None:
        self.service_slug = service_slug
        self._credentials: Dict[str, str] = {}
        self._pending_codes: Dict[str, str] = {}
        self._tokens: Set[str] = set()
        self.authorizations = 0

    def register_user(self, user: str, password: str) -> None:
        """Provision a user account at the service provider."""
        self._credentials[user] = password

    def authorize(self, user: str, password: str) -> str:
        """Step 1: the user signs in on the provider's page; returns a code."""
        if self._credentials.get(user) != password:
            raise OAuthError(f"bad credentials for {user!r} at {self.service_slug}")
        code = f"code-{self.service_slug}-{next(_code_counter)}"
        self._pending_codes[code] = user
        return code

    def exchange(self, code: str) -> OAuthGrant:
        """Step 2: the engine exchanges the single-use code for a token."""
        user = self._pending_codes.pop(code, None)
        if user is None:
            raise OAuthError(f"invalid or already-used authorization code {code!r}")
        token = self._mint_token(user)
        self._tokens.add(token)
        self.authorizations += 1
        return OAuthGrant(user=user, service_slug=self.service_slug, access_token=token)

    def validate(self, token: str) -> bool:
        """Whether a bearer token is currently valid."""
        return token in self._tokens

    def _mint_token(self, user: str) -> str:
        blob = f"{self.service_slug}|{user}|{next(_code_counter)}"
        return "tok-" + hashlib.sha1(blob.encode()).hexdigest()[:20]
