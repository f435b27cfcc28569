package serve

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// RunFrontends is the tail of both daemons' main (makalu-node service
// mode and makalu-gateway): serve handler over HTTP on httpAddr and
// start a line server on tcpAddr — each skipped when its address is
// empty — then block until SIGINT/SIGTERM and close both.
func RunFrontends(httpAddr string, handler http.Handler, tcpAddr string, startTCP func(addr string) (*TCPServer, error)) error {
	if httpAddr != "" {
		httpSrv := NewHTTPServer(httpAddr, handler)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "http: %v\n", err)
			}
		}()
		defer httpSrv.Close()
		fmt.Printf("serving HTTP on %s\n", httpAddr)
	}
	if tcpAddr != "" {
		tcpSrv, err := startTCP(tcpAddr)
		if err != nil {
			return err
		}
		defer tcpSrv.Close()
		fmt.Printf("serving TCP lookups on %s\n", tcpSrv.Addr())
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("received %v, shutting down\n", <-sigs)
	return nil
}
