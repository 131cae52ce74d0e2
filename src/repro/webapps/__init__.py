"""Web-application models.

The paper's testbed drove several commercial web apps through their APIs:
Gmail and Google Drive (§2.1), Google Sheets (applets A1, A7, and the
implicit-infinite-loop experiment in §4), and the weather service used by
IFTTT's motivating example.  Each is a cloud HTTP node exposing the small
API surface the partner services consume.

Per §2.2, partner services reach web apps by *polling* (unlike IoT
devices, which push through the local proxy) — so each app exposes
cursored ``GET`` listing endpoints alongside its action endpoints.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "base": ("WebApp",),
    "gmail": ("Gmail", "Email"),
    "gdrive": ("GoogleDrive", "DriveFile"),
    "sheets": ("GoogleSheets",),
    "weather": ("WeatherService",),
})
