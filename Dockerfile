# mirage-vendor container image: a serving control plane with the agent
# listener on 7033 and the HTTP admin API on 7080. Flag defaults are
# env-var-overridable (MIRAGE_ADMIN_ADDR, MIRAGE_JOURNAL_DIR, ...), so
# compose files tune the vendor without rewriting the command line.
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -o /out/mirage-vendor ./cmd/mirage-vendor \
    && CGO_ENABLED=0 go build -trimpath -o /out/mirage-agent ./cmd/mirage-agent \
    && CGO_ENABLED=0 go build -trimpath -o /out/mirage-ctl ./cmd/mirage-ctl

FROM alpine:3.20
RUN adduser -D -u 10001 mirage
COPY --from=build /out/mirage-vendor /usr/local/bin/mirage-vendor
COPY --from=build /out/mirage-agent /usr/local/bin/mirage-agent
COPY --from=build /out/mirage-ctl /usr/local/bin/mirage-ctl

# Operational defaults for the containerized vendor; any of these can be
# overridden at run time, and explicit command-line flags still win.
ENV MIRAGE_LISTEN_ADDR=0.0.0.0:7033 \
    MIRAGE_ADMIN_ADDR=0.0.0.0:7080 \
    MIRAGE_JOURNAL_DIR=/var/lib/mirage/journals \
    MIRAGE_SERVE=true \
    MIRAGE_LOG_FORMAT=json

RUN mkdir -p /var/lib/mirage/journals && chown -R mirage /var/lib/mirage
USER mirage
VOLUME /var/lib/mirage
EXPOSE 7033 7080

# SIGTERM (the default docker stop signal) triggers the vendor's graceful
# drain: the admin API stops admitting rollouts, then every rollout is
# suspended at its next member boundary with nothing journaled, so its
# journal resumes after a restart.
ENTRYPOINT ["mirage-vendor"]
